#include "runner/results.h"

#include <fstream>

#include "util/check.h"

namespace omcast::runner {

namespace {

// Serializes one outcome to its "cells" array entry.
Json CellToJson(const CellOutcome& cell) {
  Json j = Json::MakeObject();
  j.Set("row", cell.ctx.row_label);
  j.Set("col", cell.ctx.col_label);
  j.Set("rep", cell.ctx.rep);
  j.Set("seed", cell.ctx.seed);
  j.Set("wall_ms", cell.wall_ms);
  Json metrics = Json::MakeObject();
  for (const auto& [name, value] : cell.result.metrics)
    metrics.Set(name, value);
  j.Set("metrics", std::move(metrics));
  if (!cell.result.samples.empty()) {
    Json samples = Json::MakeObject();
    for (const auto& [name, values] : cell.result.samples) {
      Json arr = Json::MakeArray();
      for (const double v : values) arr.Append(v);
      samples.Set(name, std::move(arr));
    }
    j.Set("samples", std::move(samples));
  }
  if (!cell.result.series.empty()) {
    Json series = Json::MakeObject();
    for (const auto& [name, points] : cell.result.series) {
      Json arr = Json::MakeArray();
      for (const auto& [t, v] : points) {
        Json point = Json::MakeArray();
        point.Append(t);
        point.Append(v);
        arr.Append(std::move(point));
      }
      series.Set(name, std::move(arr));
    }
    j.Set("series", std::move(series));
  }
  if (!cell.result.registry.empty()) {
    Json registry = Json::MakeObject();
    for (const auto& [name, value] : cell.result.registry)
      registry.Set(name, value);
    j.Set("registry", std::move(registry));
  }
  if (!cell.result.timeseries.empty()) {
    Json timeseries = Json::MakeObject();
    for (const auto& [name, snap] : cell.result.timeseries) {
      Json entry = Json::MakeObject();
      entry.Set("kind", snap.kind);
      entry.Set("window_s", snap.window_s);
      Json arr = Json::MakeArray();
      for (const auto& [t, v] : snap.points) {
        Json point = Json::MakeArray();
        point.Append(t);
        point.Append(v);
        arr.Append(std::move(point));
      }
      entry.Set("points", std::move(arr));
      timeseries.Set(name, std::move(entry));
    }
    j.Set("timeseries", std::move(timeseries));
  }
  if (!cell.result.incidents.empty()) {
    Json incidents = Json::MakeObject();
    for (const auto& [name, value] : cell.result.incidents)
      incidents.Set(name, value);
    j.Set("incidents", std::move(incidents));
  }
  return j;
}

}  // namespace

ResultsSink::ResultsSink(const GridSpec& spec, const RunInfo& info,
                         GridRunSummary summary)
    : spec_(spec), info_(info), summary_(std::move(summary)) {
  // The sink only needs the grid axes; dropping the closure releases
  // whatever the bench captured in it.
  spec_.run = nullptr;
  util::Check(summary_.cells.size() == spec_.cell_count(),
              "ResultsSink: outcome count does not match the grid");
}

const CellOutcome& ResultsSink::Cell(std::size_t row, std::size_t col,
                                     int rep) const {
  util::Check(row < spec_.rows.size() && col < spec_.cols.size() &&
                  rep >= 0 && rep < spec_.reps,
              "ResultsSink::Cell: index out of range");
  const std::size_t index =
      (row * spec_.cols.size() + col) * static_cast<std::size_t>(spec_.reps) +
      static_cast<std::size_t>(rep);
  return summary_.cells[index];
}

util::RunningStat ResultsSink::Stat(std::size_t row, std::size_t col,
                                    const std::string& metric) const {
  util::RunningStat stat;
  for (int rep = 0; rep < spec_.reps; ++rep) {
    const CellResult& r = Cell(row, col, rep).result;
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) stat.Add(it->second);
  }
  return stat;
}

std::vector<double> ResultsSink::PooledSamples(std::size_t row,
                                               std::size_t col,
                                               const std::string& name) const {
  std::vector<double> out;
  for (int rep = 0; rep < spec_.reps; ++rep) {
    const CellResult& r = Cell(row, col, rep).result;
    const auto it = r.samples.find(name);
    if (it != r.samples.end())
      out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

Json ResultsSink::ToJson() const {
  Json doc = Json::MakeObject();
  doc.Set("schema_version", kResultsSchemaVersion);
  doc.Set("kind", kResultsKind);
  doc.Set("figure", spec_.figure);
  doc.Set("title", spec_.title);
  doc.Set("scale", info_.scale);
  doc.Set("git_sha", info_.git_sha);
  doc.Set("base_seed", info_.base_seed);
  doc.Set("reps", spec_.reps);
  doc.Set("threads", summary_.threads);
  doc.Set("warmup_s", info_.warmup_s);
  doc.Set("measure_s", info_.measure_s);
  doc.Set("row_header", spec_.row_header);
  Json rows = Json::MakeArray();
  for (const std::string& r : spec_.rows) rows.Append(r);
  doc.Set("rows", std::move(rows));
  Json cols = Json::MakeArray();
  for (const std::string& c : spec_.cols) cols.Append(c);
  doc.Set("cols", std::move(cols));
  if (!spec_.headline_metric.empty())
    doc.Set("headline_metric", spec_.headline_metric);
  doc.Set("wall_ms_total", summary_.wall_ms);

  Json cells = Json::MakeArray();
  for (const CellOutcome& cell : summary_.cells)
    cells.Append(CellToJson(cell));
  doc.Set("cells", std::move(cells));

  // Aggregates: every metric that appears in any rep of a (row, col),
  // union-ed in deterministic (std::map) name order.
  Json aggregates = Json::MakeArray();
  for (std::size_t row = 0; row < spec_.rows.size(); ++row) {
    for (std::size_t col = 0; col < spec_.cols.size(); ++col) {
      std::map<std::string, util::RunningStat> stats;
      for (int rep = 0; rep < spec_.reps; ++rep)
        for (const auto& [name, value] : Cell(row, col, rep).result.metrics)
          stats[name].Add(value);
      for (const auto& [name, stat] : stats) {
        Json agg = Json::MakeObject();
        agg.Set("row", spec_.rows[row]);
        agg.Set("col", spec_.cols[col]);
        agg.Set("metric", name);
        agg.Set("n", static_cast<std::uint64_t>(stat.count()));
        agg.Set("mean", stat.mean());
        agg.Set("stddev", stat.stddev());
        agg.Set("ci95", stat.ci95_half_width());
        agg.Set("min", stat.min());
        agg.Set("max", stat.max());
        aggregates.Append(std::move(agg));
      }
    }
  }
  doc.Set("aggregates", std::move(aggregates));
  return doc;
}

bool ResultsSink::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJson().Dump(/*indent=*/1) << "\n";
  return static_cast<bool>(out);
}

}  // namespace omcast::runner
