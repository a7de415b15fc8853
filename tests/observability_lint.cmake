# Observability lint: the simulator explains itself through the typed trace
# (trace::TraceSink, Metrics, FlightRecorder) and runtime::Telemetry only.
# Fails when a source file under SRC_DIR carries a free-form channel:
#   - a site of the deleted free-form log macro (EMPTCP_ followed by LOG;
#     spelled with a character class below so that searching the tree
#     for the deleted name finds no use of it);
#   - an EMPTCP_*DEBUG getenv or preprocessor switch;
#   - console output (printf, fprintf, std::cerr, std::cout) other than
#     the campaign runner's write-failure warnings and the simulation's
#     crash notice.
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DSRC_DIR=<the library's src/ directory>
if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "observability_lint: missing -DSRC_DIR")
endif()

# The allowed console output: per file, the message prefix every output
# line in it must carry.
set(allowed_campaign/runner.cpp "\"campaign: warning: ")
set(allowed_sim/simulation.cpp "\"emptcp: ")

file(GLOB_RECURSE sources RELATIVE ${SRC_DIR}
     ${SRC_DIR}/*.cpp ${SRC_DIR}/*.hpp ${SRC_DIR}/*.h)
list(SORT sources)
if(NOT sources)
  message(FATAL_ERROR "observability_lint: no sources under ${SRC_DIR}")
endif()

set(violations "")
set(count 0)
foreach(rel IN LISTS sources)
  file(READ ${SRC_DIR}/${rel} text)
  # One list element per source line: neutralize the characters CMake
  # list splitting treats specially before turning newlines into ';'.
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "\\" "/" text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(n 0)
  foreach(line IN LISTS lines)
    math(EXPR n "${n} + 1")
    set(what "")
    if(line MATCHES "EMPTCP_L[O]G")
      set(what "log macro site")
    elseif(line MATCHES "getenv.*EMPTCP_[A-Z_]*DEBUG" OR
           line MATCHES "^[ \t]*#[ \t]*(if|elif).*EMPTCP_[A-Z_]*DEBUG")
      set(what "EMPTCP_*DEBUG switch")
    elseif(line MATCHES "(^|[^A-Za-z_])f?printf[ \t]*\\(" OR
           line MATCHES "std::(cerr|cout)")
      set(what "console output")
      if(DEFINED allowed_${rel})
        string(FIND "${line}" "${allowed_${rel}}" pos)
        if(NOT pos EQUAL -1)
          set(what "")
        endif()
      endif()
    endif()
    if(what)
      string(STRIP "${line}" shown)
      string(APPEND violations "\n  src/${rel}:${n}: ${what}: ${shown}")
      math(EXPR count "${count} + 1")
    endif()
  endforeach()
endforeach()

if(count GREATER 0)
  message(FATAL_ERROR
          "observability_lint: ${count} free-form observability site(s); "
          "record a typed trace event or a runtime::Telemetry span "
          "instead:${violations}")
endif()
list(LENGTH sources nsources)
message(STATUS "observability_lint: ${nsources} files clean")
