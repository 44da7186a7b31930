# ctest script: runs ${BENCH} with no flags, writes its stdout to
# ${ACTUAL} and passes only when those bytes equal ${GOLDEN}, a committed
# file under tests/golden/.
#
# A change that alters a bench's default output on purpose regenerates
# its golden from a build of the change, e.g.
#   ./build/bench/fig5_alpha_sweep > tests/golden/fig5_alpha_sweep.txt
# and names the file and the reason in CHANGES.md.
execute_process(COMMAND ${BENCH}
                RESULT_VARIABLE exit_code
                OUTPUT_FILE ${ACTUAL})
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with '${exit_code}'")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BENCH} (${ACTUAL}) differs from the "
                      "golden ${GOLDEN}")
endif()
