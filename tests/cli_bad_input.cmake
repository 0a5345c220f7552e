# Bad command-line input must exit 2 with a reason on stderr — never
# abort, never run on a NaN. Invoked by ctest as
#   cmake -DCLI=<path to arbiterq_cli> -P cli_bad_input.cmake
# One case per entry, arguments space-separated (specs carry commas).
set(cases
  "--fleet 0"
  "--batch 0"
  "--epochs 0 --serve"
  "--lr nan"
  "--serve --faults transient:nan"
  "--serve --faults spike:0.1xnan"
  "--serve --tenants a,weight=nan --arbiter wc"
  "--serve --queue-cap 0")
foreach(args IN LISTS cases)
  string(REPLACE " " ";" argv "${args}")
  execute_process(COMMAND "${CLI}" ${argv}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "arbiterq_cli ${args}: exit '${rc}', want 2")
  endif()
  string(STRIP "${err}" err)
  if(err STREQUAL "")
    message(FATAL_ERROR "arbiterq_cli ${args}: empty stderr")
  endif()
  message(STATUS "arbiterq_cli ${args}: exit 2, ${err}")
endforeach()
