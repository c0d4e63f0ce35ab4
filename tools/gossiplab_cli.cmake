# CLI contract smoke test for gossiplab:
#   1. every subcommand's --help exits 0;
#   2. an unknown flag and an unknown subcommand exit 2;
#   3. the committed repro fixture replays with a matching trace hash;
#   4. the fault-injection fuzz pipeline finds a failure (exit 1), shrinks
#      it, writes spec + trace artifacts, and the spec artifact replays
#      bit-identically (exit 0) while tracecheck accepts the trace artifact;
#   5. the flight-recorder surface: rt --spans writes a flight log that
#      `gossiplab spans` converts, and the stats-flag contract violations
#      exit 2;
#   6. the UDP multi-process driver: rt --transport udp re-execs one OS
#      process per gossip process, the merged trace lints clean with
#      tracecheck, the JSON report names the multiproc runtime, and the
#      transport-flag contract violations exit 2;
#   7. the serving stack: an inproc loadgen run commits a consistent history
#      (histcheck exits 0), a tampered log is rejected (exit 1), and the
#      serve/loadgen/histcheck flag contracts exit 2;
#   8. the up-front memory estimate: an informed-list run that cannot fit
#      in physical memory exits 2 with a message before the engine is
#      built (run under a 1 GB address-space limit, which building the
#      n = 100000 processes would exceed; sanitized builds run uncapped).
# Driven by ctest; see tools/CMakeLists.txt.
foreach(var GOSSIPLAB TRACECHECK WORKDIR FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "gossiplab_cli.cmake needs -D${var}=...")
  endif()
endforeach()

# 1. --help for every subcommand.
foreach(sub gossip sweep consensus lowerbound trace report rt fuzz replay
        statcheck spans serve loadgen histcheck)
  execute_process(COMMAND "${GOSSIPLAB}" ${sub} --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gossiplab ${sub} --help exited ${rc}")
  endif()
  if(NOT out MATCHES "usage: gossiplab ${sub}")
    message(FATAL_ERROR "gossiplab ${sub} --help printed no usage line")
  endif()
endforeach()

# 2. Unknown flags and subcommands are rejected with exit 2.
execute_process(COMMAND "${GOSSIPLAB}" gossip --no-such-flag 1
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" frobnicate
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown subcommand exited ${rc}, want 2")
endif()

# 3. The committed fixture replays bit-identically.
execute_process(COMMAND "${GOSSIPLAB}" replay --in "${FIXTURE}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fixture replay exited ${rc} (trace hash drifted?)")
endif()

# A corrupted pinned hash must be detected (exit 1).
file(READ "${FIXTURE}" fixture_text)
string(REGEX REPLACE "\"trace_hash\": \"[0-9]+\"" "\"trace_hash\": \"1\""
       tampered_text "${fixture_text}")
set(tampered "${WORKDIR}/gossiplab_cli_tampered.spec.json")
file(WRITE "${tampered}" "${tampered_text}")
execute_process(COMMAND "${GOSSIPLAB}" replay --in "${tampered}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "tampered fixture replay exited ${rc}, want 1")
endif()

# 4. The injection pipeline: find -> shrink -> artifacts -> replay.
set(prefix "${WORKDIR}/gossiplab_cli_repro")
execute_process(
  COMMAND "${GOSSIPLAB}" fuzz --iters 20 --seed 3 --inject late-delivery
          --out "${prefix}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "injected fuzz exited ${rc}, want 1 (failure found)")
endif()
if(NOT out MATCHES "injected-audit")
  message(FATAL_ERROR "injected fuzz did not report an injected-audit "
                      "failure:\n${out}")
endif()
foreach(artifact "${prefix}.spec.json" "${prefix}.trace")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "fuzz did not write ${artifact}")
  endif()
endforeach()
execute_process(COMMAND "${GOSSIPLAB}" replay --in "${prefix}.spec.json"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shrunk artifact replay exited ${rc} (not "
                      "bit-identical)")
endif()
execute_process(COMMAND "${TRACECHECK}" "${prefix}.trace"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracecheck rejected the fuzz trace artifact "
                      "(exit ${rc})")
endif()

# 5. Flight recorder: rt --spans -> spans conversion round trip, and the
# stats-flag contract (interval 0 and --stats-out alone both exit 2).
set(flight "${WORKDIR}/gossiplab_cli_sample.flight")
execute_process(
  COMMAND "${GOSSIPLAB}" rt --alg ears --n 10 --f 2 --seed 5 --tick-us 100
          --spans "${flight}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rt --spans exited ${rc}")
endif()
if(NOT EXISTS "${flight}")
  message(FATAL_ERROR "rt --spans did not write ${flight}")
endif()
execute_process(
  COMMAND "${GOSSIPLAB}" spans --in "${flight}"
          --out "${WORKDIR}/gossiplab_cli_sample.trace.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spans conversion exited ${rc}")
endif()
if(NOT out MATCHES "delivery wall latency")
  message(FATAL_ERROR "spans printed no latency summary:\n${out}")
endif()
execute_process(COMMAND "${GOSSIPLAB}" spans --in "${WORKDIR}/no_such.flight"
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "spans on a missing input exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" rt --n 8 --stats-interval-ms 0
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rt --stats-interval-ms 0 exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" rt --n 8
          --stats-out "${WORKDIR}/gossiplab_cli_stats.ndjson"
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rt --stats-out without interval exited ${rc}, want 2")
endif()

# 6. UDP multi-process driver: a small real run over loopback sockets.
set(mp_trace "${WORKDIR}/gossiplab_cli_udp.trace")
set(mp_json "${WORKDIR}/gossiplab_cli_udp.json")
execute_process(
  COMMAND "${GOSSIPLAB}" rt --transport udp --algorithm tears --n 6 --f 1
          --seed 13 --tick-us 200 --record "${mp_trace}" --out "${mp_json}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rt --transport udp exited ${rc}:\n${err}")
endif()
execute_process(COMMAND "${TRACECHECK}" "${mp_trace}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracecheck rejected the merged multiproc trace "
                      "(exit ${rc})")
endif()
file(READ "${mp_json}" mp_report)
if(NOT mp_report MATCHES "\"runtime\": \"realtime-multiproc\"")
  message(FATAL_ERROR "udp rt report does not name the multiproc runtime:\n"
                      "${mp_report}")
endif()
if(NOT mp_report MATCHES "\"audit_violations\": 0")
  message(FATAL_ERROR "udp rt report shows audit violations:\n${mp_report}")
endif()
# Consensus over the multiproc driver: one OS process per replica, the
# ConsensusPayload wire extension on real datagrams, and the aggregated
# verdict (carried via worker note files) must come back clean.
set(cr_json "${WORKDIR}/gossiplab_cli_cr_udp.json")
execute_process(
  COMMAND "${GOSSIPLAB}" rt --transport udp --algorithm cr-ears --n 5 --f 2
          --seed 21 --tick-us 200 --out "${cr_json}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rt --transport udp --algorithm cr-ears exited ${rc}:\n"
                      "${err}")
endif()
if(NOT err MATCHES "consensus: ok")
  message(FATAL_ERROR "multiproc cr-ears run did not report a clean "
                      "consensus verdict:\n${err}")
endif()
file(READ "${cr_json}" cr_report)
if(NOT cr_report MATCHES "consensus_agreement")
  message(FATAL_ERROR "cr-ears udp report carries no consensus summary:\n"
                      "${cr_report}")
endif()

# Transport-flag contracts: wire faults need a UDP transport, and the
# flight recorder / live stats are threaded-driver-only.
execute_process(COMMAND "${GOSSIPLAB}" rt --n 6 --wire-drop 0.1
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rt --wire-drop without udp exited ${rc}, want 2")
endif()
execute_process(
  COMMAND "${GOSSIPLAB}" rt --transport udp --n 6
          --spans "${WORKDIR}/gossiplab_cli_udp.flight"
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rt --transport udp --spans exited ${rc}, want 2")
endif()

# 7. Serving stack: inproc loadgen -> committed log + observations ->
# histcheck, plus the tamper and flag contracts.
set(svc_log "${WORKDIR}/gossiplab_cli_svc.log")
set(svc_obs "${WORKDIR}/gossiplab_cli_svc.obs")
execute_process(
  COMMAND "${GOSSIPLAB}" loadgen --target inproc --requests 2000 --n 8 --f 3
          --crashes 1 --seed 9 --log "${svc_log}" --obs "${svc_obs}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inproc loadgen exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "-> complete")
  message(FATAL_ERROR "inproc loadgen did not report a complete run:\n${out}")
endif()
execute_process(COMMAND "${GOSSIPLAB}" histcheck --log "${svc_log}"
          --obs "${svc_obs}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "histcheck exited ${rc}:\n${out}")
endif()
# Tamper: rewriting one committed put's value must fail the replay check.
file(READ "${svc_log}" svc_log_text)
string(REGEX REPLACE "(\n[0-9]+ put [^\n]* )v([0-9]+)" "\\1TAMPERED"
       svc_log_tampered "${svc_log_text}")
if(svc_log_tampered STREQUAL svc_log_text)
  message(FATAL_ERROR "tamper regex matched nothing in ${svc_log}")
endif()
set(svc_log_bad "${WORKDIR}/gossiplab_cli_svc_tampered.log")
file(WRITE "${svc_log_bad}" "${svc_log_tampered}")
execute_process(COMMAND "${GOSSIPLAB}" histcheck --log "${svc_log_bad}"
          --obs "${svc_obs}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "histcheck on a tampered log exited ${rc}, want 1")
endif()
# Flag contracts.
execute_process(COMMAND "${GOSSIPLAB}" serve
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "serve without --port exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" loadgen --requests 10
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "loadgen without --target exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" loadgen --target udp --requests 10
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "loadgen --target udp without --port exited ${rc}, "
                      "want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" loadgen --target inproc --rate 100
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "loadgen without --requests/--duration exited ${rc}, "
                      "want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" loadgen --target inproc --requests 10
          --value-bytes 0
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "loadgen --value-bytes 0 exited ${rc}, want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" loadgen --target inproc --requests 10
          --alg ears
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "loadgen --alg ears (non-consensus) exited ${rc}, "
                      "want 2")
endif()
execute_process(COMMAND "${GOSSIPLAB}" histcheck --log "${svc_log}"
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "histcheck without --obs exited ${rc}, want 2")
endif()

# 8. Infeasible informed-list runs are refused before anything is built.
# The 1 GB address-space cap makes "allocates nothing" observable: building
# the n = 100000 engine would fail under it. Sanitized builds skip the cap
# (their runtime's shadow reservation alone exceeds it) and check only the
# exit code and the message.
if(SANITIZED)
  set(memory_cap "")
else()
  set(memory_cap "ulimit -v 1048576 && ")
endif()
foreach(sub gossip sweep report)
  execute_process(
    COMMAND sh -c "${memory_cap}exec \"$0\" \"$@\""
            "${GOSSIPLAB}" ${sub} --alg ears --n 100000
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${sub} --alg ears --n 100000 exited ${rc}, want 2:\n"
                        "${err}")
  endif()
  if(NOT err MATCHES "not enough memory")
    message(FATAL_ERROR "${sub} --n 100000 printed no memory message:\n${err}")
  endif()
endforeach()

message(STATUS "gossiplab CLI smoke test passed")
