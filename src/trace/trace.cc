#include "trace/trace.hpp"

namespace copra::trace {

const char *
branchKindName(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Conditional:
        return "cond";
      case BranchKind::Jump:
        return "jump";
      case BranchKind::Call:
        return "call";
      case BranchKind::Return:
        return "ret";
    }
    return "unknown";
}

} // namespace copra::trace
