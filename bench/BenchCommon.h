//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the reproduction benchmarks: run a program under
/// both completions with traces enabled, and print memory-over-time
/// series in a plot-friendly CSV form (downsampled, peak-preserving).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_BENCH_BENCHCOMMON_H
#define AFL_BENCH_BENCHCOMMON_H

#include "driver/Pipeline.h"
#include "interp/TraceAnalysis.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace afl {
namespace bench {

/// Runs the pipeline with traces; aborts the benchmark on failure.
inline driver::PipelineResult runTraced(const std::string &Name,
                                        const std::string &Source) {
  driver::PipelineOptions Options;
  Options.RecordTrace = true;
  driver::PipelineResult R = driver::runPipeline(Source, Options);
  if (!R.ok()) {
    std::fprintf(stderr, "%s: pipeline failed:\n%s\n", Name.c_str(),
                 R.Diags.str().c_str());
    std::exit(1);
  }
  if (R.Afl.ResultText != R.Reference.ResultText) {
    std::fprintf(stderr, "%s: A-F-L result mismatch: %s vs %s\n",
                 Name.c_str(), R.Afl.ResultText.c_str(),
                 R.Reference.ResultText.c_str());
    std::exit(1);
  }
  return R;
}

/// Prints "series,time,values" rows. Downsamples to about \p MaxPoints,
/// always keeping local maxima so peaks survive.
inline void printSeries(const char *Series,
                        const std::vector<interp::TracePoint> &Trace,
                        size_t MaxPoints = 400) {
  if (Trace.empty())
    return;
  size_t Stride = Trace.size() / MaxPoints + 1;
  for (size_t I = 0; I < Trace.size(); I += Stride) {
    size_t End = std::min(I + Stride, Trace.size());
    // Representative point: the maximum within the stride window.
    interp::TracePoint Best = Trace[I];
    for (size_t J = I; J != End; ++J)
      if (Trace[J].ValuesHeld > Best.ValuesHeld)
        Best = Trace[J];
    std::printf("%s,%llu,%llu\n", Series,
                static_cast<unsigned long long>(Best.Time),
                static_cast<unsigned long long>(Best.ValuesHeld));
  }
}

/// Prints the header line used by every figure benchmark.
inline void printFigureHeader(const char *Figure, const char *Workload) {
  std::printf("# %s — memory usage over time, %s\n", Figure, Workload);
  std::printf("# time = index in the sequence of memory operations "
              "(reads, writes, region allocs/frees)\n");
  std::printf("# values = storable values held in allocated regions "
              "(heap only, as in paper §6)\n");
  std::printf("series,time,values\n");
}

/// Prints the summary comparison the figure captions quote, plus the
/// space-time products (integral of residency over time) and the
/// run's `--timings` table, each line commented out with "# " so the
/// figure plots skip it (docs/OBSERVABILITY.md).
inline void printMaxSummary(const driver::PipelineResult &R) {
  std::printf("# Tofte/Talpin max = %llu, A-F-L max = %llu\n",
              static_cast<unsigned long long>(R.Conservative.S.MaxValues),
              static_cast<unsigned long long>(R.Afl.S.MaxValues));
  interp::TraceSummary TT = interp::summarizeTrace(R.Conservative.Trace);
  interp::TraceSummary AFL = interp::summarizeTrace(R.Afl.Trace);
  std::printf("# space-time product: T-T %llu (mean %.1f), "
              "A-F-L %llu (mean %.1f)\n",
              static_cast<unsigned long long>(TT.SpaceTime), TT.Mean,
              static_cast<unsigned long long>(AFL.SpaceTime), AFL.Mean);
  std::istringstream Table(R.formatTimings());
  for (std::string Line; std::getline(Table, Line);)
    std::printf("# %s\n", Line.c_str());
}

/// Renders the two memory-over-time curves as an ASCII plot, the
/// terminal rendition of the paper's figures. 'T' = Tofte/Talpin,
/// 'a' = A-F-L, '#' = both.
inline void printAsciiPlot(const std::vector<interp::TracePoint> &TT,
                           const std::vector<interp::TracePoint> &AFL,
                           unsigned Width = 72, unsigned Height = 20) {
  uint64_t MaxTime = 0, MaxVal = 1;
  for (const auto *Trace : {&TT, &AFL}) {
    for (const interp::TracePoint &P : *Trace) {
      MaxTime = std::max(MaxTime, P.Time);
      MaxVal = std::max(MaxVal, P.ValuesHeld);
    }
  }
  if (MaxTime == 0)
    return;

  // Rasterize: per column keep the max residency of each series.
  std::vector<uint64_t> ColTT(Width, 0), ColAFL(Width, 0);
  auto Raster = [&](const std::vector<interp::TracePoint> &Trace,
                    std::vector<uint64_t> &Col) {
    for (const interp::TracePoint &P : Trace) {
      size_t X = static_cast<size_t>((P.Time - 1) * Width / MaxTime);
      if (X >= Width)
        X = Width - 1;
      Col[X] = std::max(Col[X], P.ValuesHeld);
    }
  };
  Raster(TT, ColTT);
  Raster(AFL, ColAFL);

  std::printf("# %llu values -+\n", (unsigned long long)MaxVal);
  for (unsigned Row = Height; Row-- > 0;) {
    // A cell is filled if the series reaches this residency band.
    uint64_t Threshold = MaxVal * Row / Height;
    std::string Line;
    for (unsigned X = 0; X != Width; ++X) {
      bool T = ColTT[X] > Threshold;
      bool A = ColAFL[X] > Threshold;
      Line += T && A ? '#' : T ? 'T' : A ? 'a' : ' ';
    }
    std::printf("# |%s\n", Line.c_str());
  }
  std::printf("# +%s> time (%llu memory ops)\n",
              std::string(Width, '-').c_str(),
              (unsigned long long)MaxTime);
  std::printf("# legend: T = Tofte/Talpin, a = A-F-L, # = both\n");
}

} // namespace bench
} // namespace afl

#endif // AFL_BENCH_BENCHCOMMON_H
