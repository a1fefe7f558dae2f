/**
 * @file
 * Compile-time predictor contracts.
 *
 * PR 1 devirtualized the hot path on the promise that every predictor
 * honours the Predictor interface shape; PR 2 diffs each one against a
 * reference model. This header makes the *structural* half of those
 * promises a build failure instead of a convention: every type the
 * factory can construct is checked, and adding a predictor to the
 * roster without meeting the contract stops the compile with a message
 * that names the broken clause.
 *
 * To extend the roster: add the header, add the type to the
 * kRosterValidated list below, and the build tells you what's missing.
 * tests/contracts_negative.cmake proves the failure mode stays
 * readable.
 */

#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "predictor/bias_hybrid.hpp"
#include "predictor/bimodal.hpp"
#include "predictor/block_pattern.hpp"
#include "predictor/fixed_pattern.hpp"
#include "predictor/gskewed.hpp"
#include "predictor/hybrid.hpp"
#include "predictor/ideal_static.hpp"
#include "predictor/interference_free.hpp"
#include "predictor/loop_predictor.hpp"
#include "predictor/path_based.hpp"
#include "predictor/perceptron.hpp"
#include "predictor/predictor.hpp"
#include "predictor/static_pht.hpp"
#include "predictor/static_pred.hpp"
#include "predictor/tage.hpp"
#include "predictor/tournament.hpp"
#include "predictor/two_level.hpp"
#include "trace/branch_record.hpp"

namespace copra::predictor::contracts {

namespace detail {

/** True when P declares COPRA_STATE_FIELDS(...) in its own scope. */
template <typename P, typename = void>
struct DeclaresStateFields : std::false_type
{
};

template <typename P>
struct DeclaresStateFields<P, std::void_t<decltype(P::kCopraStateFields)>>
    : std::true_type
{
};

} // namespace detail

/**
 * The structural contract every roster predictor must satisfy.
 * Instantiating this template for a non-conforming type fails the
 * build; each clause carries its own message so the first error names
 * the exact violation.
 */
template <typename P>
struct PredictorContract
{
    static_assert(std::is_base_of_v<Predictor, P>,
                  "copra predictor contract: roster types must derive "
                  "from copra::predictor::Predictor so the driver and "
                  "analysis passes stay predictor-agnostic");
    static_assert(!std::is_abstract_v<P>,
                  "copra predictor contract: roster types must be "
                  "concrete — the factory has to construct them");
    static_assert(std::is_move_constructible_v<P>,
                  "copra predictor contract: roster types must be "
                  "move-constructible so experiment tables and hybrids "
                  "can own them by value");
    static_assert(std::is_nothrow_destructible_v<P>,
                  "copra predictor contract: predictor teardown runs "
                  "inside ledger unwinding and must not throw");
    static_assert(
        std::is_invocable_r_v<uint64_t, decltype(&P::predictUpdateSoa),
                              P &, const SoaBatch &, uint8_t *>,
        "copra predictor contract: predictors must expose "
        "predictUpdateSoa(const SoaBatch&, uint8_t*) -> uint64_t — the "
        "driver's batched inner loop feeds it directly");
    static_assert(
        std::is_invocable_r_v<std::string, decltype(&P::name), const P &>,
        "copra predictor contract: name() must be const-callable and "
        "return std::string — it keys ledgers and golden output");

    // State contract (DESIGN.md §14). The base-class defaults panic at
    // runtime; the roster is held to the stricter compile-time bar so a
    // predictor cannot reach copra_check's differential state gates
    // without exact bit accounting and a byte-stable snapshot.
    static_assert(detail::DeclaresStateFields<P>::value,
                  "copra predictor contract: roster types must declare "
                  "COPRA_STATE_FIELDS(...) naming every mutable member "
                  "(copra_lint's sema pass cross-checks the list against "
                  "the parsed members)");
    static_assert(
        std::is_same_v<decltype(&P::stateBits), uint64_t (P::*)() const>,
        "copra predictor contract: roster types must override "
        "stateBits() themselves — inheriting the panicking base default "
        "leaves the predictor without exact state accounting");
    static_assert(std::is_same_v<decltype(&P::snapshotState),
                                 void (P::*)(state::Writer &) const>,
                  "copra predictor contract: roster types must override "
                  "snapshotState(state::Writer&) so copra_check can "
                  "capture their architectural state byte-stably");
    static_assert(std::is_same_v<decltype(&P::restoreState),
                                 void (P::*)(state::Reader &)>,
                  "copra predictor contract: roster types must override "
                  "restoreState(state::Reader&) so snapshots round-trip "
                  "through the differential state gates");

    /** Instantiation hook: naming this member forces the checks. */
    static constexpr bool ok = true;
};

/** Conjunction that instantiates the contract for every listed type. */
template <typename... Ps>
inline constexpr bool validateRoster = (PredictorContract<Ps>::ok && ...);

/**
 * Every concrete predictor makePredictor() can return, plus the
 * analysis-only predictors the experiment kernels own by value.
 * factory.cc includes this header, so the whole roster is re-checked
 * on every build of copra_predictor.
 */
inline constexpr bool kRosterValidated = validateRoster<
    // factory roster, in spec-name order (see knownPredictors()):
    AlwaysTaken, AlwaysNotTaken, Btfnt, Bimodal, TwoLevel, GSkewed,
    IfGshare, IfPas, PathBased, LoopPredictor, BlockPatternPredictor,
    FixedPattern, Hybrid, Tage, Perceptron, Tournament,
    // analysis-side predictors constructed outside the factory:
    BiasClassifyingHybrid, IdealStatic, StaticPhtTwoLevel>;

static_assert(kRosterValidated,
              "copra predictor contract: roster validation failed");

} // namespace copra::predictor::contracts
