#!/usr/bin/env bash
# Tier-1 verify (see ROADMAP.md): configure, build, and run the full test
# suite. Run from anywhere; operates on the repo root's build trees.
#
#   scripts/tier1.sh                 # incremental, build/
#   scripts/tier1.sh --clean         # wipe the build tree first
#   scripts/tier1.sh --preset asan   # use a CMakePresets.json preset
#                                    # (build dir build-<preset>)
#   scripts/tier1.sh --scalar        # additionally re-run the intersection
#                                    # and enumerator suites with
#                                    # CECI_FORCE_SCALAR=1 (portable kernel
#                                    # tier; docs/tuning.md)
#   scripts/tier1.sh --audit         # additionally run the invariant
#                                    # auditor end to end (ceci_query
#                                    # --audit; docs/static_analysis.md)
#   scripts/tier1.sh --profile       # additionally run the query profiler
#                                    # end to end on the paper's Fig. 1
#                                    # example (--explain, --metrics-json,
#                                    # --trace-chrome; docs/observability.md).
#                                    # Artifacts land in $CECI_PROFILE_OUT
#                                    # (default: a temp dir)
#   scripts/tier1.sh --lint          # additionally run scripts/lint.sh
#   scripts/tier1.sh --resilience    # additionally run the resilience
#                                    # suites (execution budgets, failure
#                                    # injection, distsim recovery) plus
#                                    # ceci_query deadline/budget smokes
#                                    # asserting the exit-code contract
#                                    # (docs/robustness.md)
#   scripts/tier1.sh --index         # additionally run the flat-index
#                                    # suites (arena layout, index_io,
#                                    # shared-mmap concurrency, auditor)
#                                    # plus the persisted-index round
#                                    # trip: ceci_query --save-index ->
#                                    # ceci_serve --index -> identical
#                                    # served count (docs/index_layout.md)
#   scripts/tier1.sh --analyze       # additionally configure, build, and
#                                    # test the `analyze` preset: Clang's
#                                    # -Wthread-safety capability analysis
#                                    # as errors plus the negative-
#                                    # compilation harness
#                                    # (docs/static_analysis.md#capability-analysis).
#                                    # Skipped with a notice when clang++
#                                    # is not installed, unless
#                                    # CECI_REQUIRE_CLANG=1 (the clang CI
#                                    # lane) makes that fatal
#   scripts/tier1.sh --dist          # additionally run the multi-process
#                                    # suites (message codecs, failure-plan
#                                    # fuzz, kill-9 chaos harness) plus a
#                                    # supervisor smoke: a failure-free
#                                    # --dist run must equal the single-
#                                    # process count, and a scripted
#                                    # kill -9 run must recover to the
#                                    # same total with the recovery
#                                    # visible in the report and the
#                                    # --dist-json artifact
#                                    # (docs/robustness.md)
#   scripts/tier1.sh --serving       # additionally run the serving suites
#                                    # (shared-pool concurrency, admission
#                                    # control, wire protocol) plus a
#                                    # 5-second ceci_serve + ceci_loadgen
#                                    # smoke (docs/serving.md). Combine
#                                    # with --preset tsan for the
#                                    # data-race gate
#   scripts/tier1.sh --perfbench     # additionally build the standalone
#                                    # benchmark project (perfbench/,
#                                    # Release, in build-perfbench/) and
#                                    # run a 2-second traced adhoc-labeled
#                                    # workload, which exits non-zero when
#                                    # its stage-by-stage pipeline counts
#                                    # differ from CeciMatcher::Match's
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

preset=""
clean=0
scalar_pass=0
audit_pass=0
profile_pass=0
lint_pass=0
resilience_pass=0
dist_pass=0
serving_pass=0
index_pass=0
analyze_pass=0
perfbench_pass=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --clean) clean=1 ;;
    --scalar) scalar_pass=1 ;;
    --audit) audit_pass=1 ;;
    --profile) profile_pass=1 ;;
    --lint) lint_pass=1 ;;
    --resilience) resilience_pass=1 ;;
    --dist) dist_pass=1 ;;
    --serving) serving_pass=1 ;;
    --index) index_pass=1 ;;
    --analyze) analyze_pass=1 ;;
    --perfbench) perfbench_pass=1 ;;
    --preset) preset="${2:?--preset needs a name}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ -n "$preset" && "$preset" != "default" ]]; then
  build_dir="build-$preset"
else
  build_dir="build"
fi
[[ "$clean" == 1 ]] && rm -rf "$build_dir"

# Sanitizer runtime defaults; the test presets carry the same settings so a
# bare `ctest --preset asan` behaves identically.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1:strict_string_checks=1}"
export LSAN_OPTIONS="${LSAN_OPTIONS:-suppressions=$repo_root/scripts/sanitizers/lsan.supp}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:suppressions=$repo_root/scripts/sanitizers/ubsan.supp}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-suppressions=$repo_root/scripts/sanitizers/tsan.supp}"

if [[ -n "$preset" ]]; then
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j
  ctest --preset "$preset" -j
else
  cmake -B "$build_dir" -S .
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j
fi

if [[ "$scalar_pass" == 1 ]]; then
  echo "=== scalar-dispatch pass (CECI_FORCE_SCALAR=1) ==="
  # -R matches gtest suite names, not binary names: this re-runs the
  # kernel differential tests plus every intersection consumer.
  CECI_FORCE_SCALAR=1 ctest --test-dir "$build_dir" --output-on-failure \
    -R '(Intersection|Enumerator|Counting)' -j
fi

if [[ "$audit_pass" == 1 ]]; then
  echo "=== invariant-auditor pass (ceci_query --audit) ==="
  audit_tmp="$(mktemp -d)"
  trap 'rm -rf "$audit_tmp"' EXIT
  "$build_dir/src/ceci_generate" --family social --n 1500 --attach 5 \
    --labels 4 --seed 11 --out "$audit_tmp/g.txt" --format labeled
  for dist in st cgd fgd; do
    "$build_dir/src/ceci_query" --data "$audit_tmp/g.txt" --format labeled \
      --pattern "(a:0)-(b:1)-(c:2); (a)-(c)" --distribution "$dist" \
      --beta 0.05 --threads 3 --audit | grep "^audit:"
  done
fi

if [[ "$profile_pass" == 1 ]]; then
  echo "=== query-profiler pass (ceci_query --explain / --trace-chrome) ==="
  profile_out="${CECI_PROFILE_OUT:-$(mktemp -d)}"
  mkdir -p "$profile_out"
  # The paper's Fig. 1 running example (tests/test_support.h, 0-based ids;
  # labels A-E are 0-4). The canonical fixture: 2 embeddings expected.
  cat > "$profile_out/paper_example.lg" <<'EOF'
v 0 0
v 1 0
v 2 1
v 3 2
v 4 1
v 5 2
v 6 1
v 7 2
v 8 1
v 9 2
v 10 3
v 11 4
v 12 3
v 13 4
v 14 3
e 0 2
e 0 4
e 0 6
e 1 6
e 1 8
e 0 3
e 0 5
e 1 7
e 2 3
e 4 3
e 4 5
e 6 5
e 6 7
e 2 10
e 4 12
e 6 14
e 8 14
e 8 9
e 3 10
e 5 12
e 7 14
e 7 9
e 3 11
e 5 13
EOF
  "$build_dir/src/ceci_query" --data "$profile_out/paper_example.lg" \
    --format labeled \
    --pattern "(u1:0)-(u2:1)-(u3:2)-(u4:3); (u1)-(u3); (u2)-(u4); (u3)-(u5:4)" \
    --threads 2 --stats --explain --audit \
    --metrics-json "$profile_out/metrics.json" \
    --trace-chrome "$profile_out/trace.json" \
    | tee "$profile_out/explain.txt"
  grep -q "^embeddings: 2$" "$profile_out/explain.txt"
  grep -q "^EXPLAIN" "$profile_out/explain.txt"
  grep -q "^audit: audit OK" "$profile_out/explain.txt"
  # Both JSON artifacts must parse; the trace must carry events.
  python3 - "$profile_out" <<'EOF'
import json, sys
out = sys.argv[1]
metrics = json.load(open(out + "/metrics.json"))
assert "profile" in metrics, "metrics.json missing profile block"
assert len(metrics["profile"]["vertices"]) == 5
trace = json.load(open(out + "/trace.json"))
assert trace["traceEvents"], "empty Chrome trace"
print("profiler artifacts OK:", out)
EOF
fi

if [[ "$resilience_pass" == 1 ]]; then
  echo "=== resilience pass (budgets, failure injection, recovery) ==="
  # -R matches gtest suite names: budget/cancellation tests, the distsim
  # failure plans, and the termination-accounting audits.
  ctest --test-dir "$build_dir" --output-on-failure \
    -R '(ExecutionBudget|FailureInjection|FailurePlan|DistRecovery|AuditMatchResult)' -j

  resilience_tmp="$(mktemp -d)"
  trap 'rm -rf "$resilience_tmp"' EXIT
  "$build_dir/src/ceci_generate" --family social --n 3000 --attach 8 \
    --labels 4 --seed 13 --out "$resilience_tmp/g.txt" --format labeled
  # Exit-code contract (docs/robustness.md): an exhausted deadline or
  # memory budget exits 4 with a truthful termination label; generous
  # budgets change nothing and exit 0.
  set +e
  "$build_dir/src/ceci_query" --data "$resilience_tmp/g.txt" \
    --format labeled --pattern "(a:0)-(b:1)-(c:2)" --deadline-ms 0.001 \
    > "$resilience_tmp/deadline.txt"
  rc=$?
  set -e
  [[ "$rc" == 4 ]] || { echo "expected exit 4 on deadline, got $rc" >&2; exit 1; }
  grep -q "^termination: deadline$" "$resilience_tmp/deadline.txt"
  "$build_dir/src/ceci_query" --data "$resilience_tmp/g.txt" \
    --format labeled --pattern "(a:0)-(b:1)-(c:2)" --deadline-ms 60000 \
    --memory-budget-mb 1024 --audit > "$resilience_tmp/ok.txt"
  grep -q "^termination: completed$" "$resilience_tmp/ok.txt"
  echo "resilience smokes OK"
fi

if [[ "$dist_pass" == 1 ]]; then
  echo "=== multi-process pass (supervisor, workers, kill-9 recovery) ==="
  # -R matches gtest suite names: codec/transport/subprocess plumbing,
  # the 200-plan failure fuzz against the simulator, and the real-process
  # suite (failure-free exactness, 20 seeded SIGKILL trials, sim-vs-real
  # differential accounting).
  ctest --test-dir "$build_dir" --output-on-failure \
    -R '(MessagesTest|FrameChannel|SubprocessTest|PlanIoTest|FailurePlanFuzz|DistProcess)' -j

  dist_tmp="$(mktemp -d)"
  trap 'rm -rf "$dist_tmp"' EXIT
  "$build_dir/src/ceci_generate" --family er --n 300 --m 1800 --labels 3 \
    --seed 7 --out "$dist_tmp/g.txt" --format labeled
  # Ground truth from the single-process matcher.
  "$build_dir/src/ceci_query" --data "$dist_tmp/g.txt" --format labeled \
    --pattern "(a:0)-(b:1)-(c:2); (a)-(c)" > "$dist_tmp/single.txt"
  want="$(grep '^embeddings:' "$dist_tmp/single.txt" | awk '{print $2}')"
  [[ -n "$want" ]] || { echo "single-process run printed no count" >&2; exit 1; }
  # Failure-free distributed run: same total, clean audit.
  "$build_dir/src/ceci_query" --data "$dist_tmp/g.txt" --format labeled \
    --pattern "(a:0)-(b:1)-(c:2); (a)-(c)" --dist 3 \
    --dist-json "$dist_tmp/clean.json" | tee "$dist_tmp/dist.txt"
  got="$(grep '^embeddings:' "$dist_tmp/dist.txt" | awk '{print $2}')"
  [[ "$got" == "$want" ]] || { echo "dist run found $got embeddings," \
    "single-process found $want" >&2; exit 1; }
  grep -q "^audit: audit OK" "$dist_tmp/dist.txt"
  # Chaos run: a scripted kill -9 of worker 1 mid-enumeration must recover
  # to the identical total, with the recovery visible in the report.
  cat > "$dist_tmp/plan.json" <<'EOF'
{"seed": 42, "crashes": [{"machine": 1, "at_seconds": 0.000002}]}
EOF
  "$build_dir/src/ceci_query" --data "$dist_tmp/g.txt" --format labeled \
    --pattern "(a:0)-(b:1)-(c:2); (a)-(c)" --dist 3 \
    --failure-plan "$dist_tmp/plan.json" \
    --dist-json "$dist_tmp/chaos.json" | tee "$dist_tmp/chaos.txt"
  got="$(grep '^embeddings:' "$dist_tmp/chaos.txt" | awk '{print $2}')"
  [[ "$got" == "$want" ]] || { echo "chaos run found $got embeddings," \
    "single-process found $want" >&2; exit 1; }
  grep -q "^recovery: 1 crashed" "$dist_tmp/chaos.txt"
  grep -q "^audit: audit OK" "$dist_tmp/chaos.txt"
  # Both JSON artifacts must parse and agree with the terminal output.
  python3 - "$dist_tmp" "$want" <<'EOF'
import json, sys
tmp, want = sys.argv[1], int(sys.argv[2])
clean = json.load(open(tmp + "/clean.json"))
chaos = json.load(open(tmp + "/chaos.json"))
assert clean["embeddings"] == want, (clean["embeddings"], want)
assert chaos["embeddings"] == want, (chaos["embeddings"], want)
assert clean["crashed_workers"] == 0 and clean["audit_ok"]
assert chaos["crashed_workers"] == 1 and chaos["audit_ok"]
assert chaos["reassigned_clusters"] > 0
assert chaos["redelivered_units"] > 0
victims = [w for w in chaos["workers"] if w["crashed"]]
assert len(victims) == 1 and victims[0]["worker_id"] == 1, victims
assert len(chaos["orphan_events"]) == chaos["reassigned_clusters"]
print("dist smoke OK: %d embeddings, %d clusters re-adopted after kill -9"
      % (want, chaos["reassigned_clusters"]))
EOF
fi

if [[ "$serving_pass" == 1 ]]; then
  echo "=== serving pass (concurrency, admission control, protocol) ==="
  # -R matches gtest suite names: the shared-pool concurrency suite
  # (test_concurrent_matching), QueryService admission control, and the
  # wire protocol / workload / latency-summary suites. Under --preset
  # tsan this is the data-race gate for the serving layer.
  ctest --test-dir "$build_dir" --output-on-failure \
    -R '(TaskGroup|ThreadPool|ConcurrentMatching|QueryService|Protocol|Workload|Zipf|LatencySummary|Exposition|WindowDelta|WindowedAggregator|Slo|AccessLog|JsonParser|ServerTelemetry|TelemetryHttp)' -j

  serving_tmp="$(mktemp -d)"
  trap 'rm -rf "$serving_tmp"' EXIT
  "$build_dir/src/ceci_generate" --family social --n 2000 --attach 6 \
    --labels 4 --seed 17 --out "$serving_tmp/g.txt" --format labeled
  # End-to-end smoke (docs/serving.md, docs/observability.md): start
  # ceci_serve with the telemetry listener and an access log, drive it
  # with ceci_loadgen for an exact request count, scrape /metrics and
  # /healthz, and reconcile three independent tallies — loadgen's offered
  # count, the server's ceci.serve.* counters, and the access-log line
  # count — before shutting down with SIGTERM.
  "$build_dir/src/ceci_serve" --data "$serving_tmp/g.txt" --format labeled \
    --pool-threads 2 --threads-per-query 2 --max-concurrent 2 \
    --telemetry-port 0 --access-log "$serving_tmp/access.jsonl" \
    --slo-latency-ms 500 \
    --duration-s 120 > "$serving_tmp/serve.log" 2>&1 &
  serve_pid=$!
  port=""; tport=""
  for _ in $(seq 1 200); do
    if grep -q "telemetry on" "$serving_tmp/serve.log" 2>/dev/null; then
      port="$(grep 'listening on' "$serving_tmp/serve.log" \
        | sed 's/.*://' | tr -d '[:space:]')"
      tport="$(grep 'telemetry on' "$serving_tmp/serve.log" \
        | sed 's/.*://' | tr -d '[:space:]')"
      break
    fi
    sleep 0.05
  done
  [[ -n "$port" && -n "$tport" ]] || { echo "ceci_serve never came up" >&2; \
    cat "$serving_tmp/serve.log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
  "$build_dir/src/ceci_loadgen" --host 127.0.0.1 --port "$port" \
    --connections 4 --requests 200 --warmup-s 0 --mix qg --zipf 0.8 \
    --limit 1000 --seed 7 --out "$serving_tmp/smoke.jsonl" \
    --label tier1-smoke | tee "$serving_tmp/loadgen.txt"
  grep -q "^qps:" "$serving_tmp/loadgen.txt"
  grep -q "^latency_us:" "$serving_tmp/loadgen.txt"
  # Scrape the telemetry endpoint and reconcile (exact: no warmup, fixed
  # request count, scrape after the run while the server is still up).
  python3 - "$tport" "$serving_tmp" <<'EOF'
import http.client, json, re, sys
tport, tmp = int(sys.argv[1]), sys.argv[2]

def get(path):
    conn = http.client.HTTPConnection("127.0.0.1", tport, timeout=10)
    conn.request("GET", path)
    resp = conn.getresponse()
    body = resp.read().decode()
    assert resp.status == 200, f"{path} -> {resp.status}"
    return body

assert get("/healthz").strip() == "ok"

# Exposition grammar: every line is a comment or `name[{labels}] value`.
line_re = re.compile(
    r'^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* \w+.*'
    r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+naif]+)$')
metrics = get("/metrics")
for line in metrics.strip().splitlines():
    assert line_re.match(line), f"bad exposition line: {line!r}"
assert "# TYPE ceci_serve_submitted counter" in metrics
assert 'ceci_window_qps{window="1m"}' in metrics
assert "ceci_uptime_seconds" in metrics

varz = json.loads(get("/varz"))
entry = json.loads(open(tmp + "/smoke.jsonl").read().strip().splitlines()[-1])
assert entry["requests"] > 0 and entry["qps"] > 0
assert entry["latency_us"]["p99"] >= entry["latency_us"]["p50"]
assert "--mix qg" in entry["command"]

# Access-log schema + the three-way reconciliation.
required = {"ts_s", "request_id", "fingerprint", "admission", "outcome",
            "queue_us", "exec_us", "total_us", "embeddings", "cache_hit",
            "budget_charged_bytes"}
records = [json.loads(l) for l in open(tmp + "/access.jsonl")]
for r in records:
    missing = required - set(r)
    assert not missing, f"access record missing {missing}: {r}"
    assert re.fullmatch(r"r-[a-z0-9-]+", r["request_id"]), r["request_id"]

offered = entry["offered"]
counters = varz["counters"]
assert offered == 200, f"loadgen offered {offered}, wanted 200"
assert counters["ceci.serve.submitted"] == offered, \
    (counters["ceci.serve.submitted"], offered)
assert len(records) == offered, (len(records), offered)
# Admission split agrees between loadgen outcomes, server counters, and
# the access log.
busy = entry["outcomes"]["busy"]
assert counters.get("ceci.serve.rejected", 0) == busy
assert sum(1 for r in records if r["outcome"] == "busy") == busy
accepted = counters.get("ceci.serve.accepted", 0) + \
    counters.get("ceci.serve.degraded", 0)
assert accepted + busy == offered, (accepted, busy, offered)
# Windowed totals cover the whole burst (it fits inside 5 minutes).
assert varz["windows"]["5m"]["submitted"] == offered
assert varz["uptime_s"] > 0
print("telemetry smoke OK: %d offered == submitted == %d access records, "
      "%d busy" % (offered, len(records), busy))
EOF
  kill -TERM "$serve_pid"
  wait "$serve_pid" || { echo "ceci_serve exited non-zero" >&2; exit 1; }
  grep -q "shut down" "$serving_tmp/serve.log"
fi

if [[ "$index_pass" == 1 ]]; then
  echo "=== flat-index pass (arena layout, serialization, mmap serving) ==="
  # -R matches gtest test names: the arena layout suite (FlatIndexTest),
  # serialization round-trip/corruption (IndexIoTest.Flat*), the shared
  # mmap concurrency test, the flat auditor classes, and the prebuilt
  # QueryService/ceci_serve tests ("Prebuilt" matches both).
  ctest --test-dir "$build_dir" --output-on-failure \
    -R '(FlatIndex|IndexIo|SharedFlatIndex|Prebuilt)' -j

  index_tmp="$(mktemp -d)"
  trap 'rm -rf "$index_tmp"' EXIT
  "$build_dir/src/ceci_generate" --family social --n 2000 --attach 6 \
    --labels 4 --seed 17 --out "$index_tmp/g.txt" --format labeled
  # Persisted-index round trip (docs/index_layout.md#serving-a-prebuilt-index):
  # build + freeze + persist offline with ceci_query, then serve the mmap'd
  # image and require the served embedding count to equal the offline one.
  # The image is saved under a non-default matching order, so the server
  # must adopt the order the image records.
  "$build_dir/src/ceci_query" --data "$index_tmp/g.txt" --format labeled \
    --pattern "(a:0)-(b:1)-(c:2); (a)-(c)" --stats --order path-ranked \
    --save-index "$index_tmp/tri.idx" | tee "$index_tmp/offline.txt"
  want="$(grep '^embeddings:' "$index_tmp/offline.txt" | awk '{print $2}')"
  [[ -n "$want" ]] || { echo "offline run printed no embeddings" >&2; exit 1; }
  "$build_dir/src/ceci_serve" --data "$index_tmp/g.txt" --format labeled \
    --index "$index_tmp/tri.idx" --pool-threads 2 --threads-per-query 2 \
    --max-concurrent 2 --duration-s 120 > "$index_tmp/serve.log" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 200); do
    if grep -q "listening on" "$index_tmp/serve.log" 2>/dev/null; then
      port="$(grep 'listening on' "$index_tmp/serve.log" \
        | sed 's/.*://' | tr -d '[:space:]')"
      break
    fi
    sleep 0.05
  done
  [[ -n "$port" ]] || { echo "ceci_serve never came up" >&2; \
    cat "$index_tmp/serve.log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
  grep -q "installed prebuilt index" "$index_tmp/serve.log"
  python3 - "$port" "$want" <<'EOF'
import socket, sys
port, want = int(sys.argv[1]), int(sys.argv[2])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(b"MATCH (a:0)-(b:1)-(c:2); (a)-(c)\n")
line = s.makefile().readline().strip()
fields = dict(kv.split("=", 1) for kv in line.split()[1:])
assert line.startswith("OK "), line
assert fields["termination"] == "completed", line
assert int(fields["embeddings"]) == want, \
    f"served {fields['embeddings']} embeddings, offline run found {want}"
print(f"prebuilt-index round trip OK: {want} embeddings via mmap")
EOF
  kill -TERM "$serve_pid"
  wait "$serve_pid" || { echo "ceci_serve exited non-zero" >&2; exit 1; }
  grep -q "shut down" "$index_tmp/serve.log"
fi

if [[ "$perfbench_pass" == 1 ]]; then
  echo "=== perfbench pass (benchmark driver build + traced adhoc run) ==="
  # perfbench/ is its own CMake project over ../src; run.py builds it into
  # $CARGO_TARGET_DIR, here a tree of its own so it never mixes with the
  # test build.
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j --target ceci_perfbench ceci_serve \
    ceci_worker
  CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
    --workload adhoc-labeled --seconds 2 --trace 1
fi

if [[ "$analyze_pass" == 1 ]]; then
  echo "=== capability-analysis pass (clang -Wthread-safety, preset analyze) ==="
  if command -v clang++ >/dev/null 2>&1; then
    [[ "$clean" == 1 ]] && rm -rf build-analyze
    cmake --preset analyze
    cmake --build --preset analyze -j
    ctest --preset analyze -j
  elif [[ "${CECI_REQUIRE_CLANG:-0}" == 1 ]]; then
    echo "analyze pass requires clang++ (CECI_REQUIRE_CLANG=1) but it is" \
      "not installed" >&2
    exit 1
  else
    echo "analyze pass skipped: clang++ not installed (the clang CI lane" \
      "runs it; see docs/static_analysis.md#capability-analysis)"
  fi
fi

if [[ "$lint_pass" == 1 ]]; then
  echo "=== lint pass (scripts/lint.sh) ==="
  scripts/lint.sh
fi
