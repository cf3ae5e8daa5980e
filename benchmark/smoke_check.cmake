# Smoke-runs one workload with tracing and checks its JSON against
# BENCHMARK.json: every end_to_end and per_layer metric must be present
# with the declared unit, and sims_failed must be 0.
#
#   cmake -DBENCH=<tcc_benchmark> -DWORKLOAD=<name> -DSPEC=<BENCHMARK.json>
#         -DOUT_DIR=<dir> -P smoke_check.cmake
cmake_minimum_required(VERSION 3.19)

foreach(var BENCH WORKLOAD SPEC OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_check: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(out "${OUT_DIR}/${WORKLOAD}.json")
set(trace "${OUT_DIR}/${WORKLOAD}.trace.json")
file(REMOVE "${out}" "${trace}")
execute_process(
  COMMAND "${BENCH}" --workload "${WORKLOAD}" --seed 1 --smoke
          --out "${out}" --trace "${trace}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tcc_benchmark --workload ${WORKLOAD} exited ${rc}")
endif()

file(READ "${SPEC}" spec)
file(READ "${out}" result)
file(READ "${trace}" trace_json)
string(JSON n_events LENGTH "${trace_json}" traceEvents)
if(n_events LESS 2)
  message(FATAL_ERROR "${trace}: no spans recorded")
endif()

string(JSON failed GET "${result}" sims_failed)
if(NOT failed EQUAL 0)
  message(FATAL_ERROR "${WORKLOAD}: sims_failed = ${failed}")
endif()

foreach(section end_to_end per_layer)
  string(JSON n LENGTH "${spec}" ${section})
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${spec}" ${section} ${i} name)
    string(JSON want GET "${spec}" ${section} ${i} unit)
    string(JSON got ERROR_VARIABLE err GET "${result}" metrics ${name} unit)
    if(err)
      message(FATAL_ERROR "${WORKLOAD}: metric ${name} missing")
    endif()
    if(NOT got STREQUAL want)
      message(FATAL_ERROR
              "${WORKLOAD}: metric ${name} has unit '${got}', "
              "BENCHMARK.json says '${want}'")
    endif()
  endforeach()
endforeach()
message(STATUS "${WORKLOAD}: ${n} per-layer metrics, units match, "
               "0 failed simulations")
