#!/usr/bin/env bash
# Index-layout benchmark (docs/index_layout.md#benchmark): run bench_index
# over the Table-2 dataset analogs and assemble BENCH_index.json, or
# validate an already-committed file's schema and claims.
#
#   scripts/bench_index.sh                  # run, write BENCH_index.json
#   scripts/bench_index.sh --out PATH       # write elsewhere
#   scripts/bench_index.sh --reps 5         # best-of-N timing reps
#   scripts/bench_index.sh --validate PATH  # schema + claims check (CI)
#
# Validation enforces the byte claims the flat layout is sold on: every
# (dataset, query) cell is present once; the exact flat arena is smaller
# than malloc_usable_size over the mutable pointer-rich index it is frozen
# from on every cell; and at least one dataset shows a >= 2x reduction.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

build_dir="build"
out="BENCH_index.json"
reps=3
limit=500000
validate=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) out="${2:?--out needs a path}"; shift ;;
    --build-dir) build_dir="${2:?--build-dir needs a path}"; shift ;;
    --reps) reps="${2:?--reps needs a count}"; shift ;;
    --limit) limit="${2:?--limit needs a count}"; shift ;;
    --validate) validate="${2:?--validate needs a path}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

validate_file() {
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, "schema_version must be 1"
assert doc["bench"] == "index"
runs = doc["runs"]
by_cell = {}
for r in runs:
    key = (r["dataset"], r["query"])
    assert key not in by_cell, f"{key[0]}/{key[1]} listed twice"
    by_cell[key] = r
assert len(by_cell) >= 25, f"need >= 25 (dataset, query) cells, got {len(by_cell)}"
datasets = sorted({d for d, _ in by_cell})
best_reduction = {}
for (d, q), run in sorted(by_cell.items()):
    mut, fx = run["bytes_mutable_measured"], run["bytes_flat_exact"]
    assert mut > 0 and fx > 0, f"{d}/{q}: zero measured bytes"
    # The byte claims are against the pointer-rich layout (one heap vector
    # per TE/NTE key) that the flat arena is frozen from.
    assert fx < mut, f"{d}/{q}: flat arena not below mutable ({fx} vs {mut})"
    best_reduction[d] = max(best_reduction.get(d, 0.0), mut / fx)
hit = [d for d in datasets if best_reduction[d] >= 2.0]
assert hit, f"no dataset reached a 2x measured-byte reduction: {best_reduction}"
print(f"BENCH_index.json OK: {len(runs)} runs over {len(datasets)} datasets; "
      f">=2x byte reduction on {hit}; "
      f"best reduction per dataset: "
      + ", ".join(f"{d}=x{best_reduction[d]:.1f}" for d in datasets))
EOF
}

if [[ -n "$validate" ]]; then
  validate_file "$validate"
  exit 0
fi

bench_bin="$build_dir/bench/bench_index"
[[ -x "$bench_bin" ]] || {
  echo "missing $bench_bin (build first: scripts/tier1.sh)" >&2
  exit 1
}

bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT

jsonl="$bench_tmp/runs.jsonl"
"$bench_bin" --out "$jsonl" --reps "$reps" --limit "$limit"

python3 - "$jsonl" "$out" "$reps" "$limit" <<'EOF'
import json, sys
jsonl, out, reps, limit = sys.argv[1:5]
runs = [json.loads(line) for line in open(jsonl) if line.strip()]
doc = {
    "schema_version": 1,
    "bench": "index",
    "config": {
        "reps": int(reps),
        "limit": int(limit),
        "threads": 1,
        "datasets": "Table-2 analogs FS LJ OK WT YT (bench_common.h)",
        "command": f"bench_index --out runs.jsonl --reps {reps} --limit {limit}",
        "bytes_measured": "bytes_mutable_measured = malloc_usable_size over "
                          "the refined mutable index; bytes_flat_exact = "
                          "exact arena size",
    },
    "runs": runs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(runs)} runs")
EOF

validate_file "$out"
