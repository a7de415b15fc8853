# CLI contract gate for emptcp-report: --help prints usage and exits 0;
# bad invocations print usage to stderr and exit 2 (never 0, never crash).
# A --rollup-json file that cannot be written in full also exits 2.
# Invoked by ctest with -DREPORT_TOOL=<path to emptcp-report> and
# -DGOLDEN_DIR=<tests/data/golden>.
foreach(var REPORT_TOOL GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "report_cli_gate: missing -D${var}")
  endif()
endforeach()

function(expect_run rc_expected out_match err_match)
  execute_process(
    COMMAND ${REPORT_TOOL} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${rc_expected})
    message(FATAL_ERROR
            "report_cli_gate: emptcp-report ${ARGN} exited ${rc}, "
            "expected ${rc_expected}\nstdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT out_match STREQUAL "" AND NOT out MATCHES "${out_match}")
    message(FATAL_ERROR
            "report_cli_gate: emptcp-report ${ARGN}: stdout missing "
            "\"${out_match}\": ${out}")
  endif()
  if(NOT err_match STREQUAL "" AND NOT err MATCHES "${err_match}")
    message(FATAL_ERROR
            "report_cli_gate: emptcp-report ${ARGN}: stderr missing "
            "\"${err_match}\": ${err}")
  endif()
endfunction()

# --help (and -h, in any position) prints usage on stdout, exit 0.
expect_run(0 "usage: emptcp-report" "" --help)
expect_run(0 "usage: emptcp-report" "" --diff -h)

# No arguments: usage on stderr, exit 2.
expect_run(2 "" "usage: emptcp-report")

# Unknown option in report mode: complaint + usage on stderr, exit 2.
expect_run(2 "" "unknown option: --bogus" --bogus)

# Unknown option / missing operands in diff mode: exit 2 with usage.
expect_run(2 "" "unknown option: --frob" --diff --frob a.json b.json)
expect_run(2 "" "usage: emptcp-report" --diff only_one.json)
expect_run(2 "" "--tol needs" --diff a.json b.json --tol)

# Nonexistent report directory: diagnostic on stderr, exit 2.
expect_run(2 "" "" /nonexistent-dir-for-report-gate)

# --rollup-json onto a full device: the lost bytes show only when the
# file closes, and must still fail the run.
if(EXISTS /dev/full)
  expect_run(2 "" "cannot write /dev/full"
             ${GOLDEN_DIR} --rollup-json /dev/full)
endif()

message(STATUS "report_cli_gate: all CLI contract checks passed")
