# Tier-1 campaign smoke: run the committed smoke spec end to end (tiny
# 2-protocol x 2-seed grid, seconds of wall clock), then re-run it and
# require a full resume — no cell recomputed, byte-identical report.
# The traces are decision-level: no cwnd, srtt or sched_pick line, and
# trace.elided.* count lines in their place. Then tamper with one trace:
# a changed digit must surface as a digest mismatch, a broken final line
# must fail the report naming file and line, and a re-run must recompute
# exactly that cell. Last, a spec with an unknown key must be refused
# with one line of reason and exit 2, without the usage text.
# Invoked by ctest with:
#   -DCAMPAIGN_TOOL=<path to emptcp-campaign>
#   -DREPORT_TOOL=<path to emptcp-report>
#   -DSPEC=<examples/campaigns/smoke.spec>
#   -DOUT_DIR=<scratch campaign directory>
foreach(var CAMPAIGN_TOOL REPORT_TOOL SPEC OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_smoke_gate: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})

execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE first_report
  ERROR_VARIABLE first_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: first run failed (${rc}): "
                      "${first_log}")
endif()
if(NOT first_log MATCHES "4 ran, 0 resumed")
  message(FATAL_ERROR "campaign_smoke_gate: expected 4 fresh cells, got: "
                      "${first_log}")
endif()
if(NOT first_report MATCHES "all digests and energy cross-checks ok")
  message(FATAL_ERROR "campaign_smoke_gate: report integrity check failed:\n"
                      "${first_report}")
endif()
if(NOT first_report MATCHES "== flows ")
  message(FATAL_ERROR "campaign_smoke_gate: report lacks the per-flow "
                      "distribution section:\n${first_report}")
endif()

# Campaign cells trace at the decisions level: the per-ACK kinds are
# counted into trace.elided.* metrics, never written as lines.
file(GLOB traces ${OUT_DIR}/*.jsonl)
foreach(trace ${traces})
  file(STRINGS ${trace} per_ack
       REGEX "\"kind\":\"(cwnd|srtt|sched_pick)\"")
  if(per_ack)
    list(GET per_ack 0 first)
    message(FATAL_ERROR "campaign_smoke_gate: per-ACK line in ${trace}: "
                        "${first}")
  endif()
  file(STRINGS ${trace} elided REGEX "\"metric\":\"trace\\.elided\\.")
  if(NOT elided)
    message(FATAL_ERROR "campaign_smoke_gate: no trace.elided.* count in "
                        "${trace}")
  endif()
endforeach()

# Second invocation: everything resumes from the ledger, and the rendered
# report is byte-identical (same artifacts -> same report).
execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE second_report
  ERROR_VARIABLE second_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: resume run failed (${rc}): "
                      "${second_log}")
endif()
if(NOT second_log MATCHES "0 ran, 4 resumed")
  message(FATAL_ERROR "campaign_smoke_gate: expected a full resume, got: "
                      "${second_log}")
endif()
if(NOT first_report STREQUAL second_report)
  message(FATAL_ERROR "campaign_smoke_gate: resumed report differs from the "
                      "original")
endif()

# Tamper 1: change one digit inside a trace value. The trace still parses,
# but its bytes no longer match the manifest's digest.
file(GLOB traces ${OUT_DIR}/*.jsonl)
list(GET traces 0 trace)
get_filename_component(trace_name ${trace} NAME)
get_filename_component(cell ${trace} NAME_WE)
file(READ ${trace} original)
string(FIND "${original}" "\"t_ns\":" at)
if(at LESS 0)
  message(FATAL_ERROR "campaign_smoke_gate: no t_ns value in ${trace}")
endif()
math(EXPR at "${at} + 7")
string(SUBSTRING "${original}" ${at} 1 digit)
if(digit STREQUAL "1")
  set(other "2")
else()
  set(other "1")
endif()
string(SUBSTRING "${original}" 0 ${at} head)
math(EXPR at "${at} + 1")
string(SUBSTRING "${original}" ${at} -1 tail)
file(WRITE ${trace} "${head}${other}${tail}")
execute_process(
  COMMAND ${REPORT_TOOL} ${OUT_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE tampered_report
  ERROR_VARIABLE tampered_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: report over a changed digit "
                      "failed (${rc}): ${tampered_log}")
endif()
if(NOT tampered_report MATCHES "DIGEST MISMATCH: [^\n]*${cell}.manifest.json"
   OR tampered_report MATCHES "all digests and energy cross-checks ok")
  message(FATAL_ERROR "campaign_smoke_gate: a changed digit in "
                      "${trace_name} went unnoticed:\n${tampered_report}")
endif()

# Tamper 2: append a broken final line. The report must refuse (exit 2)
# and name the file and the line.
string(REGEX MATCHALL "\n" newlines "${original}")
list(LENGTH newlines line_count)
math(EXPR broken_line "${line_count} + 1")
file(APPEND ${trace} "{broken")
execute_process(
  COMMAND ${REPORT_TOOL} ${OUT_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE broken_report
  ERROR_VARIABLE broken_log)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "campaign_smoke_gate: report over a broken line "
                      "exited ${rc}, expected 2: ${broken_log}")
endif()
if(NOT broken_log MATCHES "${trace_name}: line ${broken_line}:")
  message(FATAL_ERROR "campaign_smoke_gate: broken-line error does not "
                      "name ${trace_name} line ${broken_line}: "
                      "${broken_log}")
endif()

# A re-run recomputes exactly the tampered cell, and the report is the
# first run's again, byte for byte.
execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR} ${SPEC}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE repaired_report
  ERROR_VARIABLE repaired_log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign_smoke_gate: repair run failed (${rc}): "
                      "${repaired_log}")
endif()
if(NOT repaired_log MATCHES "1 ran, 3 resumed")
  message(FATAL_ERROR "campaign_smoke_gate: expected only the tampered "
                      "cell to re-run, got: ${repaired_log}")
endif()
if(NOT first_report STREQUAL repaired_report)
  message(FATAL_ERROR "campaign_smoke_gate: report after the repair run "
                      "differs from the original")
endif()

# A spec the parser refuses: exit 2, the reason on one line, no usage.
set(bad_spec ${OUT_DIR}-bad.spec)
file(WRITE ${bad_spec} "name = bad\nprotocols = emptcp\nfleet_sizes = 1\n"
                       "seeds = 1\nno_such_key = 1\n")
execute_process(
  COMMAND ${CAMPAIGN_TOOL} --out ${OUT_DIR}-bad ${bad_spec}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_log)
file(REMOVE ${bad_spec})
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "campaign_smoke_gate: a spec with an unknown key "
                      "exited ${rc}, expected 2: ${bad_log}")
endif()
if(NOT bad_log MATCHES "^emptcp-campaign: [^\n]*no_such_key[^\n]*\n$")
  message(FATAL_ERROR "campaign_smoke_gate: an unknown spec key should "
                      "print one line naming it, got:\n${bad_log}")
endif()
if(bad_log MATCHES "usage:")
  message(FATAL_ERROR "campaign_smoke_gate: a spec error printed the "
                      "usage text:\n${bad_log}")
endif()

message(STATUS "campaign_smoke_gate: run + resume + tamper + repair + "
               "report + spec error all consistent")
