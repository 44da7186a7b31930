# ctest script: runs ${BENCH} --jobs 100000 and passes only when the bench
# exits 2 with the --jobs limit message (bench_common.hpp).
execute_process(COMMAND ${BENCH} --jobs 100000
                RESULT_VARIABLE exit_code
                OUTPUT_QUIET
                ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${exit_code}'")
endif()
if(NOT stderr_text MATCHES
   "--jobs 100000 exceeds the limit of 256 worker threads")
  message(FATAL_ERROR "no --jobs limit message in:\n${stderr_text}")
endif()
