// ceci_generate — dataset generator for the CECI benchmarks.
//
// Produces the synthetic graph families used throughout the repository
// (Graph500 Kronecker, Erdős–Rényi, Barabási–Albert, the Holme–Kim social
// analog) and writes them in any supported format.
//
//   ceci_generate --family kronecker --scale 16 --edge-factor 10
//                 --labels 100 --out rd.txt --format labeled
//   ceci_generate --family social --n 30000 --attach 12 --out fs.bin
//                 --format csr
//
// Flags:
//   --family F     kronecker | er | ba | social        (required)
//   --out PATH     output file                         (required)
//   --format FMT   edgelist | labeled | csr            (default: labeled)
//                  csr is the binary CSR file (§5's shared-storage layout),
//                  read resident or with adjacency on demand
//   --n N          vertices (er/ba/social)
//   --m M          edges (er)
//   --attach K     attachment count / cap (ba/social)
//   --scale S      log2 vertices (kronecker)
//   --edge-factor E  edges per vertex (kronecker)
//   --labels L     assign L random labels (0 = unlabeled)
//   --multi-labels K up to K labels per vertex (with --labels)
//   --seed S       RNG seed (default 1)
//
// Every number is a plain decimal count (ParseFlagNumber): a sign, a
// suffix or an overflow is a usage error (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "gen/kronecker.h"
#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graph/metrics.h"
#include "graphio/binary_csr.h"
#include "graphio/edge_list.h"
#include "util/tcp.h"

namespace {

using namespace ceci;

struct Args {
  std::string family;
  std::string out;
  std::string format = "labeled";
  std::size_t n = 10000;
  std::size_t m = 50000;
  std::size_t attach = 4;
  int scale = 14;
  int edge_factor = 8;
  std::size_t labels = 0;
  std::size_t multi_labels = 1;
  std::uint64_t seed = 1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--family" && (v = next())) {
      args->family = v;
    } else if (flag == "--out" && (v = next())) {
      args->out = v;
    } else if (flag == "--format" && (v = next())) {
      args->format = v;
    } else if (flag == "--n" && (v = next())) {
      if (!ParseFlagNumber(v, &args->n)) return false;
    } else if (flag == "--m" && (v = next())) {
      if (!ParseFlagNumber(v, &args->m)) return false;
    } else if (flag == "--attach" && (v = next())) {
      if (!ParseFlagNumber(v, &args->attach)) return false;
    } else if (flag == "--scale" && (v = next())) {
      if (!ParseFlagNumber(v, &args->scale)) return false;
    } else if (flag == "--edge-factor" && (v = next())) {
      if (!ParseFlagNumber(v, &args->edge_factor)) return false;
    } else if (flag == "--labels" && (v = next())) {
      if (!ParseFlagNumber(v, &args->labels)) return false;
    } else if (flag == "--multi-labels" && (v = next())) {
      if (!ParseFlagNumber(v, &args->multi_labels)) return false;
    } else if (flag == "--seed" && (v = next())) {
      if (!ParseFlagNumber(v, &args->seed)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->family.empty() && !args->out.empty();
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) out << v << " " << w << "\n";
    }
  }
  return out ? Status::Ok() : Status::IoError("write failure");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: ceci_generate --family kronecker|er|ba|social --out PATH\n"
        "         [--format edgelist|labeled|csr] [--n N] [--m M]\n"
        "         [--attach K] [--scale S] [--edge-factor E] [--labels L]\n"
        "         [--multi-labels K] [--seed S]\n"
        "  csr: binary CSR (offsets, label runs, sorted adjacency), loaded\n"
        "       resident or read with adjacency on demand\n");
    return 2;
  }

  Graph g;
  if (args.family == "kronecker") {
    KroneckerOptions k;
    k.scale = args.scale;
    k.edge_factor = args.edge_factor;
    k.seed = args.seed;
    g = GenerateKronecker(k);
  } else if (args.family == "er") {
    g = GenerateErdosRenyi(args.n, args.m, args.seed);
  } else if (args.family == "ba") {
    g = GenerateBarabasiAlbert(args.n, args.attach, args.seed);
  } else if (args.family == "social") {
    g = GenerateSocialGraph(args.n, args.attach, args.seed);
  } else {
    std::fprintf(stderr, "unknown --family %s\n", args.family.c_str());
    return 2;
  }

  if (args.labels > 0) {
    g = args.multi_labels > 1
            ? AssignMultiLabels(g, args.labels, args.multi_labels,
                                args.seed + 1)
            : AssignRandomLabels(g, args.labels, args.seed + 1);
  }

  Status st;
  if (args.format == "edgelist") {
    st = WriteEdgeListFile(g, args.out);
  } else if (args.format == "labeled") {
    st = WriteLabeledGraph(g, args.out);
  } else if (args.format == "csr") {
    st = WriteBinaryCsr(g, args.out);
  } else {
    std::fprintf(stderr, "unknown --format %s\n", args.format.c_str());
    return 2;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "write: %s\n", st.ToString().c_str());
    return 1;
  }

  DegreeStats deg = ComputeDegreeStats(g);
  std::printf("%s  (triangles=%llu, clustering=%.4f, deg skew=%.1f)\n",
              g.Summary().c_str(),
              static_cast<unsigned long long>(CountTriangles(g)),
              GlobalClusteringCoefficient(g), deg.skew);
  std::printf("wrote %s (%s)\n", args.out.c_str(), args.format.c_str());
  return 0;
}
