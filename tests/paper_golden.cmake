# paper_golden — pins one paper-reproduction bench's report byte for byte.
#
# Runs a built bench_* binary with no arguments (the default 731-day world,
# seed 20170301) and compares its stdout with the golden in
# tests/data/paper_golden/<bench>.txt. Registered once per bench in
# tests/CMakeLists.txt as paper_golden_<bench>; to run one by hand:
#
#   cmake -DBENCH=build/bench/bench_table1_attack_events \
#         -DGOLDEN=tests/data/paper_golden/bench_table1_attack_events.txt \
#         -DWORK=/tmp/paper_golden -P tests/paper_golden.cmake
#
# The goldens were captured with the commit that added them, before the
# paper aggregates moved from EventStore onto Snapshot queries. To
# regenerate one, build that commit and save the bench's stdout. There is
# no update switch on purpose.

foreach(var BENCH GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_golden: pass -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK}")
get_filename_component(name "${BENCH}" NAME)
set(out "${WORK}/${name}.txt")

execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_FILE "${out}"
                ERROR_VARIABLE err
                RESULT_VARIABLE rc
                TIMEOUT 1200)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper_golden: ${name} exited ${rc}: ${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}" "${GOLDEN}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper_golden: ${name} stdout (${out}) differs from ${GOLDEN}")
endif()
message(STATUS "ok: ${name} matches ${GOLDEN}")
