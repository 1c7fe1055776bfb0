# Runs one bench at reduced scale with span tracing on and a Perfetto export
# path set, then validates both outputs: the BENCH_<name>.json report (which
# must carry valid spans / span_stages sections; a hand-made bad report must
# be refused) and the exported Chrome
# trace-event file (bench_validate --trace checks slice shape and async
# begin/end balance). Invoked by the trace_smoke CTest test as
#   cmake -DBENCH_EXE=... -DVALIDATOR=... -DJSON_NAME=... -DOUT_DIR=...
#         -P run_trace_smoke.cmake
foreach(var BENCH_EXE VALIDATOR JSON_NAME OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

if(NOT DEFINED ENV{MSTS_BENCH_SCALE})
  set(ENV{MSTS_BENCH_SCALE} "0.04")
endif()
if(NOT DEFINED ENV{MSTS_THREADS})
  set(ENV{MSTS_THREADS} "2")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{MSTS_BENCH_JSON_DIR} "${OUT_DIR}")
set(ENV{MSTS_TRACE} "1")
set(ENV{MSTS_TRACE_PATH} "${OUT_DIR}/trace.json")

execute_process(COMMAND "${BENCH_EXE}" RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "traced bench exited with status ${bench_rc}")
endif()

execute_process(COMMAND "${VALIDATOR}" "${OUT_DIR}/${JSON_NAME}"
                RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "bench report validation failed (status ${validate_rc})")
endif()
file(READ "${OUT_DIR}/${JSON_NAME}" report)
if(NOT report MATCHES "\"span_stages\"")
  message(FATAL_ERROR "traced report ${JSON_NAME} has no span_stages section")
endif()

# Negative case: a hand-made report whose one stage has p99 above max must
# be refused.
set(bad_report "${OUT_DIR}/BENCH_bad_span_stage.json")
file(WRITE "${bad_report}" [=[
{"bench": "bad_span_stage", "schema_version": 1, "threads": 1, "scale": 1.0,
 "phases": [], "total_wall_s": 0.1, "scalars": {},
 "spans": 3, "spans_dropped": 0,
 "span_stages": [{"name": "stage", "count": 3, "total_ns": 300, "min_ns": 50,
                  "max_ns": 150, "p50_ns": 100, "p99_ns": 200}]}
]=])
execute_process(COMMAND "${VALIDATOR}" "${bad_report}"
                RESULT_VARIABLE bad_rc OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
  message(FATAL_ERROR "bench_validate accepted a span stage with p99_ns > max_ns")
endif()

if(NOT EXISTS "${OUT_DIR}/trace.json")
  message(FATAL_ERROR "traced bench did not export ${OUT_DIR}/trace.json")
endif()
execute_process(COMMAND "${VALIDATOR}" --trace "${OUT_DIR}/trace.json"
                RESULT_VARIABLE trace_rc)
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "Perfetto trace validation failed (status ${trace_rc})")
endif()
