#!/usr/bin/env bash
# Project lint pass (docs/static_analysis.md#lint-workflow).
#
# Two layers:
#   1. Grep rules — project-specific invariants that run everywhere, with
#      no toolchain requirements. Violations fail the script.
#   2. clang-tidy / clang-format — run only when the binaries exist (the
#      minimal CI container ships gcc only); otherwise each is reported as
#      skipped.
#
#   scripts/lint.sh            # lint src/ and tests/
#   scripts/lint.sh --fix      # let clang-format rewrite files in place
#
# CECI_REQUIRE_CLANG=1 turns the clang-format/clang-tidy "skipped" paths
# into failures (set by the clang CI lane, where the tools must exist).
# CECI_LINT_BUILD_DIR points clang-tidy at a different compile_commands
# directory (default: build).
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

fix=0
for arg in "$@"; do
  case "$arg" in
    --fix) fix=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

sources=$(find src tests -name '*.cc' -o -name '*.h' | sort)
failures=0

fail() {
  echo "lint: $1" >&2
  echo "$2" | sed 's/^/  /' >&2
  failures=$((failures + 1))
}

# --- Rule: no naked `new`. Ownership goes through make_unique/make_shared;
# the exceptions are an intentionally leaked process-lifetime singleton
# (`// lint: leaky-singleton`) and a friend factory wrapping a private
# constructor make_unique cannot reach (`// lint: private-ctor`).
hits=$(grep -nE '(=|return|\()\s*new\s+[A-Za-z_]' $sources \
  | grep -vE 'lint: (leaky-singleton|private-ctor)' || true)
if [[ -n "$hits" ]]; then
  fail "naked new (use std::make_unique, or annotate a leaky singleton)" \
    "$hits"
fi

# --- Rule: the flat-index arena stays pointer-free. Everything inside the
# arena is addressed by u32 slab offsets so the image can be written to
# disk, mmap'd back, and shared across threads without fixups
# (docs/index_layout.md). Heap allocation or owning pointers in these
# files would silently break that relocatability contract.
arena_sources=$(echo "$sources" \
  | grep -E 'src/(ceci/(flat_index|index_io)|util/mapped_file)\.' || true)
hits=$(echo "$arena_sources" \
  | xargs grep -nE '\bnew\b|\bdelete\b|\bmalloc\s*\(|\bfree\s*\(|unique_ptr|shared_ptr' 2>/dev/null \
  | grep -vE '= delete|// lint: arena-exempt' || true)
if [[ -n "$hits" ]]; then
  fail "raw allocation / owning pointer in arena-backed index code" "$hits"
fi

# --- Rule: enumeration reads only the frozen arena. The staging CeciIndex
# is the build/refine structure; the enumerator, the scheduler, the
# extreme-cluster decomposition and the dist worker take FlatCeciIndex, so
# a second enumeration layout cannot creep back in (docs/architecture.md).
enum_sources=$(echo "$sources" \
  | grep -E 'src/ceci/(enumerator|scheduler|extreme_cluster)\.|src/dist/worker\.cc' || true)
hits=$(echo "$enum_sources" | xargs grep -nw 'CeciIndex' 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "staging CeciIndex in the enumeration layer (take const FlatCeciIndex&)" \
    "$hits"
fi

# --- Rule: lock through util/sync.h, never the raw std primitives. The
# capability analysis (docs/static_analysis.md#capability-analysis) only
# sees locks taken through the annotated Mutex/MutexLock/CondVar wrappers;
# a raw std::mutex is invisible to it and silently unchecked. util/sync.h
# itself wraps the std types and is exempt; any other exception carries
# `// lint: raw-mutex` with a justification.
hits=$(echo "$sources" | grep -E '^src/' | grep -v 'src/util/sync\.h' \
  | xargs grep -nE 'std::(mutex|recursive_mutex|shared_mutex|timed_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b|#include <(mutex|condition_variable|shared_mutex)>' 2>/dev/null \
  | grep -v 'lint: raw-mutex' || true)
if [[ -n "$hits" ]]; then
  fail "raw std synchronization primitive (use util/sync.h wrappers)" "$hits"
fi

# --- Rule: a Mutex member implies guarded fields. A file that declares a
# Mutex member must annotate what it protects with CECI_GUARDED_BY (the
# analysis then enforces the discipline); a mutex that genuinely guards no
# field (e.g. serializing an external resource) says so on its declaration
# with `// lint: unguarded`.
hits=""
for f in $(echo "$sources" | grep -E '^src/'); do
  decls=$(grep -nE '^\s*(mutable\s+)?(ceci::)?Mutex\s+[A-Za-z_]' "$f" \
    | grep -v 'lint: unguarded' || true)
  [[ -z "$decls" ]] && continue
  if ! grep -q 'CECI_GUARDED_BY' "$f"; then
    hits+="$f declares a Mutex but annotates no CECI_GUARDED_BY field:"
    hits+=$'\n'"$decls"$'\n'
  fi
done
if [[ -n "$hits" ]]; then
  fail "unguarded Mutex member (annotate fields or waive with // lint: unguarded)" \
    "$hits"
fi

# --- Rule: no unchecked Status. A Result<T>/Status return must be consumed;
# calling .status() or .value() without .ok() first shows up as a bare
# `.value()` on a fresh call expression.
hits=$(grep -nE '^\s*[A-Za-z_:<>]+\([^;]*\)\.value\(\)' $sources || true)
if [[ -n "$hits" ]]; then
  fail "Result<T>.value() on an unchecked call (test .ok() first)" "$hits"
fi

# --- Rule: atomics spell their memory order (library code only; tests may
# take the seq_cst default). Implicit seq_cst hides the intended ordering
# contract and costs fences on weak architectures. Calls that break before
# their arguments (trailing `(`) carry the order on the next line.
hits=$(echo "$sources" | grep -E '^src/' \
  | xargs grep -nE '\.(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|exchange|compare_exchange_(weak|strong))\(' 2>/dev/null \
  | grep -vE 'memory_order|std::atomic|\($|// lint: seq-cst' || true)
if [[ -n "$hits" ]]; then
  fail "atomic operation without an explicit std::memory_order" "$hits"
fi

# --- Rule: no stray printf-debugging in the library (tools/ prints by
# design; util/logging owns stderr).
hits=$(echo "$sources" | grep -E '^src/(ceci|graph|analysis|util|serve|telemetry)/' \
  | xargs grep -nE '\b(std::cout|std::cerr|printf)\b' 2>/dev/null \
  | grep -vE 'logging|// lint: allow-print|:[0-9]+: *//' || true)
if [[ -n "$hits" ]]; then
  fail "direct stdout/stderr output in library code (use CECI_LOG)" "$hits"
fi

# --- Rule: raw process/socket primitives live in src/util/ only. The
# supervisor's failure detection depends on every worker channel being a
# close-on-exec socketpair owned by exactly one child (util/subprocess.h);
# a stray fork or socketpair elsewhere can leak a descriptor into a
# sibling and suppress the EOF that announces a crash. Network servers
# and clients go through util/tcp.h, which opens every TCP socket
# close-on-exec and owns the one accept loop, so socket/accept/bind/
# listen/connect are banned here too. They match only in the global
# spelling (`::bind(`), so `std::bind(` passes.
# posix_spawn, vfork and clone are spawning primitives too, matched with
# or without the `::` (a member call such as `x.clone(` is not one).
hits=$(echo "$sources" | grep -E '^src/' | grep -v '^src/util/' \
  | xargs grep -nE '(^|[^_[:alnum:]])::(fork|socketpair|execv|execve|waitpid|socket|accept4?|bind|listen|connect)\s*\(|(^|[^.>:_[:alnum:]]|::)(posix_spawnp?|vfork|clone)\s*\(' 2>/dev/null \
  || true)
if [[ -n "$hits" ]]; then
  fail "raw process/socket primitive outside src/util/ (use util/subprocess.h or util/tcp.h)" \
    "$hits"
fi

# --- Rule: one distributed core. The work-stealing replay and the
# at-most-once adoption rule live only in src/distsim/replay.{h,cc}; the
# simulator and the process supervisor are thin callers of it. An event
# queue, a pending-crash set or a cluster -> adopter map in either caller
# is a second copy of the replay growing back, which then has to be kept
# in step by hand.
hits=$(grep -nE '\bpriority_queue\b|future_crashes|cluster_adopter|map<\s*VertexId' \
  src/dist/supervisor.cc src/distsim/dist_matcher.cc 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "replay event loop or adoption map outside the shared core (use distsim::Replay / distsim::AdopterMap)" \
    "$hits"
fi

# --- Rule: one §5 configuration. The knobs both distributed engines
# honour live in distsim::DistConfig, which DistOptions and
# DistProcessOptions hold as one member and PlanPartitions reads directly.
# Assigning one of them field by field in either engine
# (`plan_options.beta = options.beta`) is a second copy of the
# configuration growing back, which then has to be kept in step by hand.
hits=$(grep -nE '\.(beta|break_automorphisms|jaccard_top_k|work_stealing|cost_model|failure_plan|decompose_extreme_clusters)\s*=([^=]|$)' \
  src/dist/supervisor.cc src/distsim/dist_matcher.cc 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "shared dist knob copied field by field (pass distsim::DistConfig whole)" \
    "$hits"
fi

# --- Rule: one Algorithm-1 builder and one filter table. The LF/DF/NLC
# verdicts are computed once per query by FilterTable::Compute
# (src/ceci/preprocess.cc) and only read from the table by CeciBuilder,
# over a resident Graph and an OnDemandCsr alike. An NLC coverage test
# elsewhere in src/ceci/ is a second filter chain growing back — the
# deleted out-of-core copy had one and could not reproduce the per-filter
# rejection counts — and so is any include of its header.
hits=$(echo "$sources" | grep -E '^src/ceci/' | grep -v '^src/ceci/preprocess\.cc$' \
  | xargs grep -nF '.Covers(' 2>/dev/null || true)
hits+=$(grep -rnE '#include\s*"ceci/streaming_builder\.h"' src tests bench examples \
  perfbench 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "filter verdicts outside the FilterTable (read them from preprocess.cc's table)" \
    "$hits"
fi

# --- Rule: no vector per key. The TE/NTE lists are built and refined as
# runs into one pool per list (src/ceci/ceci_index.h), the shape the arena
# stores. The class that held one heap vector per key (CandidateList) is
# gone, and a vector of vertex-id vectors in src/ceci/ is that layout
# growing back. An outer vector indexed by query vertex or by depth, never
# by key, carries `// lint: not-per-key`.
hits=$(echo "$sources" | grep -E '^src/' \
  | xargs grep -nw 'CandidateList' 2>/dev/null || true)
more=$(echo "$sources" | grep -E '^src/ceci/' \
  | xargs grep -nE 'std::vector<\s*std::vector<\s*VertexId\s*>\s*>' 2>/dev/null \
  | grep -v 'lint: not-per-key' || true)
hits=$(printf '%s\n%s' "$hits" "$more" | sed '/^$/d')
if [[ -n "$hits" ]]; then
  fail "vector-per-key candidate lists (append runs to a RunPool)" \
    "$hits"
fi

# --- Rule: one candidate-rank map. Refinement, the one stage that maps
# data-vertex ids to ranks, looks a data vertex up among a query vertex's
# candidates through CandidateRanks (src/ceci/ceci_index.h); the freeze
# copies ranks and needs no map. The freeze's private RankTable and
# refinement's stamped DenseScratch maps are gone; either name in src/ is
# a second dense per-data-vertex map growing back.
hits=$(echo "$sources" | grep -E '^src/' \
  | xargs grep -nwE 'DenseScratch|RankTable' 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "private per-data-vertex rank map (use CandidateRanks)" "$hits"
fi

# --- Rule: one arena layout check. The slab element widths and every
# fact that makes an arena valid live in src/ceci/flat_index.cc
# (FlatCeciIndex::CheckLayout), which the CEIX loader and the auditor both
# run. The auditor's own width table (kSlabElemBytes) is gone; that name
# anywhere else in src/ or tests/ is a second layout check growing back.
hits=$(echo "$sources" | grep -v '^src/ceci/flat_index\.cc$' \
  | xargs grep -nw 'kSlabElemBytes' 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "second slab element-width table (run FlatCeciIndex::CheckLayout)" \
    "$hits"
fi

# --- Rule: one restriction-set choice per pipeline. The Grochow–Kellis
# set and its mirror are derived where the plan is chosen — the staged
# pipeline (src/ceci/matcher.cc) and the partition planner
# (src/distsim/partition_plan.cc) — and travel from there in the prepared
# query or the CEIX image. A Compute call anywhere else in the system is a
# second derivation that ignores the choice and can enumerate a different
# set of representatives than the index was planned for. The baselines
# keep their own fixed Grochow–Kellis plan.
hits=$(echo "$sources" | grep -E '^src/' \
  | grep -vE '^src/ceci/(symmetry|matcher)\.cc$|^src/distsim/partition_plan\.cc$|^src/baselines/' \
  | xargs grep -nF 'SymmetryConstraints::Compute(' 2>/dev/null || true)
if [[ -n "$hits" ]]; then
  fail "restriction set derived outside a choice site (read the chosen set from the PreparedQuery, PartitionPlan or CEIX image)" \
    "$hits"
fi

# --- Rule: every registered ceci.* / dist.* metric is documented. The
# counter tables in docs/observability.md are the operator-facing contract
# for /metrics and /varz; a metric registered in src/ but absent from the
# docs is invisible to whoever builds the dashboards. Names are extracted
# from Get{Counter,Gauge,Histogram}("...") literals (whitespace-stripped
# first, so wrapped call sites still match).
metric_names=$(echo "$sources" | grep -E '^src/' | xargs cat 2>/dev/null \
  | tr -d ' \n' \
  | grep -oE 'Get(Counter|Gauge|Histogram)\("(ceci|dist|distsim)\.[a-zA-Z0-9_.]+"' \
  | grep -oE '(ceci|dist|distsim)\.[a-zA-Z0-9_.]+' | sort -u)
undocumented=""
for name in $metric_names; do
  if ! grep -qF "$name" docs/observability.md; then
    undocumented+="$name"$'\n'
  fi
done
if [[ -n "$undocumented" ]]; then
  fail "registered metric missing from docs/observability.md counter tables" \
    "$undocumented"
fi

# --- clang-format (gated on availability) ---
if command -v clang-format >/dev/null 2>&1; then
  if [[ "$fix" == 1 ]]; then
    clang-format -i $sources
    echo "lint: clang-format applied"
  else
    unformatted=$(clang-format --dry-run -Werror $sources 2>&1 || true)
    if [[ -n "$unformatted" ]]; then
      fail "clang-format differences (run scripts/lint.sh --fix)" \
        "$(echo "$unformatted" | head -20)"
    fi
  fi
elif [[ "${CECI_REQUIRE_CLANG:-0}" == 1 ]]; then
  fail "clang-format required (CECI_REQUIRE_CLANG=1) but not installed" ""
else
  echo "lint: clang-format not installed; skipping format check"
fi

# --- clang-tidy (gated on availability; needs compile_commands.json) ---
tidy_build_dir="${CECI_LINT_BUILD_DIR:-build}"
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ -f "$tidy_build_dir/compile_commands.json" ]]; then
    tidy_out=$(clang-tidy -p "$tidy_build_dir" --quiet \
      $(echo "$sources" | grep '\.cc$') 2>/dev/null || true)
    if echo "$tidy_out" | grep -q "warning:"; then
      fail "clang-tidy warnings" "$(echo "$tidy_out" | grep 'warning:' | head -20)"
    fi
  elif [[ "${CECI_REQUIRE_CLANG:-0}" == 1 ]]; then
    fail "clang-tidy required but $tidy_build_dir/compile_commands.json missing" ""
  else
    echo "lint: $tidy_build_dir/compile_commands.json missing; configure with" \
      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON to enable clang-tidy"
  fi
elif [[ "${CECI_REQUIRE_CLANG:-0}" == 1 ]]; then
  fail "clang-tidy required (CECI_REQUIRE_CLANG=1) but not installed" ""
else
  echo "lint: clang-tidy not installed; skipping static analysis"
fi

if [[ "$failures" -gt 0 ]]; then
  echo "lint: FAILED ($failures rule(s) violated)" >&2
  exit 1
fi
echo "lint: OK"
