# copra_paper's golden check, invoked by ctest as
#   cmake -DBINARY=<copra_paper> -DARGS=<semicolon list>
#         -DPARTS=<section snapshots, in paper order> -DOUT=<capture path>
#         -DUPDATE=<update script> -P golden_paper.cmake
#
# copra_paper prints every section of the paper driver in paper order,
# so its stdout must be the per-harness snapshots joined in that order.
# The joined file is built next to the capture, and the comparison is
# golden/run_golden.cmake's.

foreach(var PARTS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_paper.cmake: missing -D${var}=")
    endif()
endforeach()

set(GOLDEN ${OUT}.expected)
file(WRITE ${GOLDEN} "")
foreach(part ${PARTS})
    file(READ ${part} text)
    file(APPEND ${GOLDEN} "${text}")
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/golden/run_golden.cmake)
