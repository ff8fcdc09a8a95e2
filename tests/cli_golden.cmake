# cli_golden — pins the `dosmeter` command line byte for byte.
#
# Runs the built `dosmeter` and compares its stdout, and the files it
# writes, with the goldens in tests/data/cli_golden/. Registered in
# tests/CMakeLists.txt; to run it by hand:
#
#   cmake -DDOSMETER=build/tools/dosmeter -DGOLDEN=tests/data/cli_golden \
#         -DWORK=/tmp/cli_golden -P tests/cli_golden.cmake
#
# The goldens were captured with the commit that added them, before the
# CLI's flag parsing was rewritten. To regenerate them, build that commit
# and run each command below in an empty directory: a check(<file> ...)
# line's stdout is <file>, a same(<written> <file>) line's golden is the
# file the command before it wrote. There is no update switch on purpose.

foreach(var DOSMETER GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden: pass -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(fail message)
  message(STATUS "FAIL: ${message}")
  set_property(GLOBAL APPEND PROPERTY cli_golden_failures "${message}")
endfunction()

# same(<written> <golden>): a file under WORK equals a golden byte for byte.
function(same written golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/${written}" "${GOLDEN}/${golden}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    fail("${written} differs from ${golden}")
  endif()
endfunction()

# check(<golden> <args>...): `dosmeter <args>` exits 0 and prints <golden>.
set_property(GLOBAL PROPERTY cli_golden_runs 0)
function(check golden)
  get_property(run GLOBAL PROPERTY cli_golden_runs)
  math(EXPR run "${run} + 1")
  set_property(GLOBAL PROPERTY cli_golden_runs ${run})
  set(out "run${run}-${golden}")
  execute_process(COMMAND "${DOSMETER}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_FILE "${WORK}/${out}"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc
                  TIMEOUT 120)
  string(REPLACE ";" " " command "${ARGN}")
  if(NOT rc EQUAL 0)
    fail("`dosmeter ${command}` exited ${rc}: ${err}")
  else()
    message(STATUS "ok: dosmeter ${command}")
    same("${out}" "${golden}")
  endif()
endfunction()

# reject(<flag> <args>...): `dosmeter <args>` exits 2, names <flag> on
# stderr, and stops before it loads or builds a dataset.
function(reject flag)
  execute_process(COMMAND "${DOSMETER}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc
                  TIMEOUT 120)
  string(REPLACE ";" " " command "${ARGN}")
  string(FIND "${err}" "${flag}" named)
  string(FIND "${err}" "[dosmeter] building" built)
  if(NOT rc EQUAL 2)
    fail("`dosmeter ${command}` exited ${rc}, not 2: ${err}")
  elseif(named EQUAL -1)
    fail("`dosmeter ${command}` does not name ${flag}: ${err}")
  elseif(NOT built EQUAL -1)
    fail("`dosmeter ${command}` built a world before rejecting ${flag}")
  else()
    message(STATUS "ok: dosmeter ${command} rejects ${flag}")
  endif()
endfunction()

set(world --seed 7 --days 45)
set(aggs summary daily top-targets top-asns top-countries events)
set(filter --agg events --source telescope --port 80
           --from 2015-03-10 --to 2015-03-31)

# `query` output is the same for any segmenting.
foreach(segments "" "--segment-days;1" "--segment-days;7")
  foreach(agg IN LISTS aggs)
    check(query-${agg}-explain.txt query ${world} --agg ${agg} --k 25
          --explain ${segments})
  endforeach()
  check(query-filtered-explain.txt query ${world} ${filter} --k 25
        --explain ${segments})
endforeach()

# An archived snapshot answers as `query` does, read cold and uncached.
check(archive-save.txt archive save --file golden.dosarch ${world})
set(cold archive load --file golden.dosarch --hot-days 0 --cache-bytes 0)
foreach(agg IN LISTS aggs)
  check(query-${agg}.txt ${cold} --agg ${agg} --k 25)
endforeach()
check(query-filtered.txt ${cold} ${filter} --k 25)

check(watch.txt watch ${world} --max 20)

# Detection output is the same for any thread count.
set(detect detect --direct 120 --reflection 30 --hours 2)
check(detect.txt ${detect} --threads 1 --save-events t1.bin)
same(t1.bin detect-events.bin)
check(detect.txt ${detect} --threads 8 --save-events t8.bin)
same(t8.bin detect-events.bin)
check(detect.txt ${detect} --threads 3 --save-events t3.bin)
same(t3.bin detect-events.bin)

check(report.txt --seed 7 --days 30 --domains 3000 --out report)
same(report/daily.csv daily.csv)

# Malformed numbers and names are rejected before any dataset is built.
reject(--port query --seed 7 --days 10 --port 70000 --asn 12abc)
reject(--asn query --seed 7 --days 10 --asn 12abc)
reject(--domains --seed 7 --days 10 --domains -5 --quiet)
reject(--days --seed 7 --days 10x --direct -3 --quiet)
reject(--direct --seed 7 --days 10 --direct -3 --quiet)
reject(--seed --seed -1 --days 10 --quiet)
reject(--agg query --seed 7 --days 10 --agg bogus)
reject(--proto watch --seed 7 --days 10 --proto 300)
reject(--shards detect --threads 3 --shards 13)
reject(--direct --seed 7 --days 2 --direct inf --quiet)
reject(--reflection --seed 7 --days 2 --reflection nan --quiet)
reject(--k query --seed 7 --days 10 --k 0)
reject(--k query --seed 7 --days 10 --k 100001)
reject(--min-intensity query --seed 7 --days 10 --min-intensity nan)
reject(--min-intensity query --seed 7 --days 10 --min-intensity inf)

# A capture that is not a pcap, or whose packets step back in time, is bad
# input: `detect --pcap` exits 2 at any thread count. out-of-order.pcap is
# the first six frames of `dosmeter detect --direct 2 --reflection 1
# --hours 0.1 --save-pcap F` with packet 4 restamped to 1 ms into the
# capture, before packet 3.
reject(--pcap detect --pcap ${GOLDEN}/daily.csv)
reject(--pcap detect --pcap ${GOLDEN}/out-of-order.pcap)
reject(--pcap detect --pcap ${GOLDEN}/out-of-order.pcap --threads 3)

get_property(failures GLOBAL PROPERTY cli_golden_failures)
if(failures)
  list(LENGTH failures count)
  message(FATAL_ERROR "cli_golden: ${count} check(s) failed")
endif()
