#include "analytics/figures.hpp"

#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/aggregate.hpp"
#include "analytics/knobs.hpp"
#include "fi/grid.hpp"
#include "pruning/activation_study.hpp"
#include "pruning/pessimistic_pairs.hpp"
#include "stats/confidence.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace onebit::analytics {

namespace {

std::string markerText(const CellResolution& r) {
  switch (r.state) {
    case CellResolution::State::Complete:
      return {};
    case CellResolution::State::Partial:
      return "incomplete(" + std::to_string(r.recorded) + "/" +
             std::to_string(r.expected) + ")";
    case CellResolution::State::Missing:
      return "missing";
    case CellResolution::State::Ambiguous:
      return "ambiguous";
  }
  return {};
}

/// Collapse several cells into one marker (a figure row fed by many
/// campaigns): ambiguity dominates, then all-missing, then a summed
/// incomplete(recorded/expected).
std::string aggregateMarker(const std::vector<const CellResolution*>& cells) {
  bool allMissing = true;
  std::size_t recorded = 0;
  std::size_t expected = 0;
  for (const CellResolution* r : cells) {
    if (r->state == CellResolution::State::Ambiguous) return "ambiguous";
    if (r->state != CellResolution::State::Missing) allMissing = false;
    recorded += r->recorded;
    expected += r->expected;
  }
  if (allMissing) return "missing";
  return "incomplete(" + std::to_string(recorded) + "/" +
         std::to_string(expected) + ")";
}

/// What a render asks for each campaign cell it needs.
using CellSource = std::function<CellResolution(const CellKey&)>;

/// One render: the source it asks and the output it builds.
struct Ctx {
  const CellSource& source;
  FigureOutput out;

  CellResolution resolve(const CellKey& cell) {
    CellResolution r = source(cell);
    ++out.cells;
    if (!r.complete()) ++out.incompleteCells;
    return r;
  }

  void emit(const util::TextTable& table) {
    out.text += renderTable(table, csvEnabled());
  }
};

// ---------------------------------------------------------------------------
// Fig. 1 (a, b): outcome classification of single bit-flip campaigns for
// both injection techniques, per program. Each technique has its own seed
// salt base, incremented per selected program.
void renderFig1(Ctx& ctx) {
  const std::size_t n = experimentsPerCampaign(400);
  ctx.out.text +=
      headerNote("Fig. 1: single bit-flip outcome classification", n);
  const std::vector<std::string> programs = selectedPrograms();
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    fi::FaultModel spec = fi::FaultModel::singleBit(tech);
    if (!specSelected(spec)) continue;
    spec.flipWidth = flipWidth();
    std::uint64_t salt = tech == fi::FaultDomain::RegisterRead ? 100 : 200;
    std::vector<CellResolution> cells;
    cells.reserve(programs.size());
    for (const std::string& name : programs) {
      cells.push_back(ctx.resolve(
          {name, spec, util::hashCombine(masterSeed(), salt++), n}));
    }
    appendf(ctx.out.text, "--- (%c) %s ---\n",
            tech == fi::FaultDomain::RegisterRead ? 'a' : 'b',
            fi::domainName(tech).data());
    util::TextTable table({"program", "Benign%", "Detection%", "SDC%",
                           "SDC +/-", "hang", "no-output"});
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const CellResolution& r = cells[i];
      if (!r.complete()) {
        const std::string m = markerText(r);
        table.addRow({programs[i], m, m, m, m, m, m});
        continue;
      }
      const auto benign = r.counts.proportion(stats::Outcome::Benign);
      const auto sdc = r.counts.proportion(stats::Outcome::SDC);
      // "Detection" = Detected + Hang + NoOutput (§III-E).
      const std::size_t detection = r.counts.count(stats::Outcome::Detected) +
                                    r.counts.count(stats::Outcome::Hang) +
                                    r.counts.count(stats::Outcome::NoOutput);
      const auto det = stats::proportionCI(detection, r.counts.total());
      table.addRow(
          {programs[i], util::fmtPercent(benign.fraction),
           util::fmtPercent(det.fraction), util::fmtPercent(sdc.fraction),
           util::fmtPercent(sdc.ciHalfWidth),
           std::to_string(r.counts.count(stats::Outcome::Hang)),
           std::to_string(r.counts.count(stats::Outcome::NoOutput))});
    }
    ctx.emit(table);
    ctx.out.text += "\n";
  }
  appendf(ctx.out.text,
          "Paper check (Fig. 1): inject-on-write SDC%% is higher than "
          "inject-on-read overall;\nHang and NoOutput stay insignificant "
          "(<~0.3%% in the paper).\n");
}

// ---------------------------------------------------------------------------
// Fig. 2 (a, b): SDC percentage when injecting 1..30 errors into the SAME
// instruction/register (win-size = 0), per program and technique.
// ONEBIT_SPECS drops columns the way ONEBIT_PROGRAMS drops rows. The salt
// walks the FULL sameRegisterCampaigns axis (also past filtered-out specs)
// per selected program, so a filtered run keeps every surviving cell's seed
// (and store campaign key) identical to the unfiltered run's.
void renderFig2(Ctx& ctx) {
  const std::size_t n = experimentsPerCampaign(200);
  ctx.out.text +=
      headerNote("Fig. 2: SDC% vs max-MBF, same register (win-size = 0)", n);
  const std::vector<std::string> programs = selectedPrograms();
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    const std::vector<fi::FaultModel> allSpecs =
        fi::sameRegisterCampaigns(tech);
    std::vector<bool> selected;
    std::vector<fi::FaultModel> specs;
    for (const fi::FaultModel& spec : allSpecs) {
      selected.push_back(specSelected(spec));
      if (selected.back()) specs.push_back(spec);
    }
    if (specs.empty()) continue;
    std::uint64_t salt = tech == fi::FaultDomain::RegisterRead ? 1000 : 2000;
    // cells[program][selected spec]
    std::vector<std::vector<CellResolution>> cells;
    for (const std::string& name : programs) {
      std::vector<CellResolution> row;
      for (std::size_t j = 0; j < allSpecs.size(); ++j) {
        if (!selected[j]) {
          ++salt;
          continue;
        }
        fi::FaultModel spec = allSpecs[j];
        spec.flipWidth = flipWidth();
        row.push_back(ctx.resolve(
            {name, spec, util::hashCombine(masterSeed(), salt++), n}));
      }
      cells.push_back(std::move(row));
    }
    appendf(ctx.out.text, "--- (%c) %s ---\n",
            tech == fi::FaultDomain::RegisterRead ? 'a' : 'b',
            fi::domainName(tech).data());
    std::vector<std::string> header = {"program"};
    for (const fi::FaultModel& s : specs) {
      header.push_back("m=" + std::to_string(s.pattern.count));
    }
    util::TextTable table(header);
    for (std::size_t i = 0; i < programs.size(); ++i) {
      std::vector<std::string> row = {programs[i]};
      for (const CellResolution& r : cells[i]) {
        row.push_back(r.complete()
                          ? util::fmtPercent(
                                r.counts.proportion(stats::Outcome::SDC)
                                    .fraction)
                          : markerText(r));
      }
      table.addRow(std::move(row));
    }
    ctx.emit(table);
    ctx.out.text += "\n";
  }
  appendf(ctx.out.text,
          "Paper check (Fig. 2 / RQ2): for most programs the single bit-flip "
          "column (m=1) is\npessimistic or within noise of every multi-bit "
          "column; exceptions cluster on programs\nwith low detection rates "
          "(basicmath, crc32 in the paper).\n");
}

// ---------------------------------------------------------------------------
// Fig. 3 (a, b): distribution of the number of ACTIVATED errors before a
// crash, when intending to inject 30 (max-MBF = 30), aggregated over all
// win-size values — the RQ1 analysis. One seed salt per selected program;
// the nine win-size campaign seeds come from pruning::activationCampaigns
// on the program's base seed.
void renderFig3(Ctx& ctx) {
  const std::size_t n = experimentsPerCampaign(100);
  ctx.out.text +=
      headerNote("Fig. 3: activated errors before crash (max-MBF = 30)", n);
  const std::vector<std::string> programs = selectedPrograms();
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    std::uint64_t salt = tech == fi::FaultDomain::RegisterRead ? 3000 : 4000;
    std::vector<std::vector<CellResolution>> cells;
    for (const std::string& name : programs) {
      std::vector<CellResolution> programCells;
      for (const fi::CampaignConfig& config : pruning::activationCampaigns(
               tech, n, util::hashCombine(masterSeed(), salt), flipWidth())) {
        programCells.push_back(
            ctx.resolve({name, config.model, config.seed, config.experiments}));
      }
      ++salt;
      cells.push_back(std::move(programCells));
    }
    appendf(ctx.out.text, "--- (%c) %s ---\n",
            tech == fi::FaultDomain::RegisterRead ? 'a' : 'b',
            fi::domainName(tech).data());
    util::TextTable table(
        {"program", "crashes", "1-5 errors", "6-10 errors", ">10 errors"});
    pruning::ActivationBuckets total;
    std::vector<const CellResolution*> sectionCells;
    bool sectionComplete = true;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      std::vector<const CellResolution*> programCells;
      bool programComplete = true;
      for (const CellResolution& r : cells[i]) {
        programCells.push_back(&r);
        sectionCells.push_back(&r);
        if (!r.complete()) programComplete = false;
      }
      if (!programComplete) {
        sectionComplete = false;
        const std::string m = aggregateMarker(programCells);
        table.addRow({programs[i], m, m, m, m});
        continue;
      }
      pruning::ActivationBuckets b;
      for (const CellResolution& r : cells[i]) {
        pruning::accumulateActivations(b, r.hist);
      }
      total.upToFive += b.upToFive;
      total.sixToTen += b.sixToTen;
      total.moreThanTen += b.moreThanTen;
      table.addRow({programs[i], std::to_string(b.total()),
                    util::fmtPercent(b.fracUpToFive()),
                    util::fmtPercent(b.fracSixToTen()),
                    util::fmtPercent(b.fracMoreThanTen())});
    }
    if (sectionComplete) {
      table.addRow({"== all ==", std::to_string(total.total()),
                    util::fmtPercent(total.fracUpToFive()),
                    util::fmtPercent(total.fracSixToTen()),
                    util::fmtPercent(total.fracMoreThanTen())});
    } else {
      const std::string m = aggregateMarker(sectionCells);
      table.addRow({"== all ==", m, m, m, m});
    }
    ctx.emit(table);
    ctx.out.text += "\n";
  }
  appendf(ctx.out.text,
          "Paper check (Fig. 3 / RQ1): crashes activate at most 5 errors in "
          "~96%% (read) and ~78%%\n(write) of experiments; ~99%% (read) / "
          "~92%% (write) activate fewer than 10 — justifying\nmax-MBF <= 10 "
          "as the practical bound (30 only probes the tail).\n");
}

// ---------------------------------------------------------------------------
// Fig. 4 / Fig. 5 / Table III from one grid computation: Fig. 4 and Fig. 5
// are the SDC% of multi-register injections on read and on write, and
// Table III is the (max-MBF, win-size) pair with the highest SDC% per
// program and technique, compared against the single bit-flip model. They
// share the 81-campaign grid per program/technique (1 single-bit + 8
// win-sizes x 10 max-MBF). One salt counter walks read grids then write
// grids; each program's grid and validation seeds derive from its base
// seed through pruning::gridCampaigns / pruning::validationCampaign.
//
// The validation campaign re-runs the grid argmax with a fresh seed (the
// raw argmax is biased upward — winner's curse). Its identity depends on
// that argmax, so a grid asks for it only once every grid cell is
// complete: a driver runs the grids, then the validations.

struct ResolvedGrid {
  std::string name;
  std::uint64_t baseSeed = 0;
  std::vector<fi::CampaignConfig> configs;
  std::vector<CellResolution> cells;  ///< parallel to configs
  bool gridComplete = true;
  pruning::PessimisticPairResult result;
  CellResolution validation;       ///< resolved only when gridComplete
  bool validationMarked = false;   ///< grid complete, validation not
};

std::vector<ResolvedGrid> resolveGrids(Ctx& ctx,
                                       const std::vector<std::string>& programs,
                                       fi::FaultDomain tech, std::size_t n,
                                       std::uint64_t& salt) {
  std::vector<ResolvedGrid> grids;
  for (const std::string& name : programs) {
    ResolvedGrid grid;
    grid.name = name;
    grid.baseSeed = util::hashCombine(masterSeed(), salt++);
    grid.configs = pruning::gridCampaigns(tech, n, grid.baseSeed, flipWidth());
    std::vector<pruning::CampaignSdc> all;
    for (const fi::CampaignConfig& config : grid.configs) {
      CellResolution r =
          ctx.resolve({name, config.model, config.seed, config.experiments});
      if (!r.complete()) grid.gridComplete = false;
      all.push_back(
          {config.model, r.counts.proportion(stats::Outcome::SDC)});
      grid.cells.push_back(std::move(r));
    }
    grid.result = pruning::selectPessimisticPair(std::move(all));
    if (grid.gridComplete && grid.result.hasBest) {
      const fi::CampaignConfig config = pruning::validationCampaign(
          grid.result.bestModel, n, grid.baseSeed, 3);
      grid.validation =
          ctx.resolve({name, config.model, config.seed, config.experiments});
      if (grid.validation.complete()) {
        grid.result.validatedBestSdc =
            grid.validation.counts.proportion(stats::Outcome::SDC);
      } else {
        grid.validationMarked = true;
      }
    }
    grids.push_back(std::move(grid));
  }
  return grids;
}

void printFigure(Ctx& ctx, const char* title,
                 const std::vector<ResolvedGrid>& grids) {
  appendf(ctx.out.text, "--- %s ---\n", title);
  std::vector<std::string> header = {"program", "win-size", "m=1"};
  for (const unsigned m : fi::FaultModel::paperMaxMbf()) {
    header.push_back("m=" + std::to_string(m));
  }
  util::TextTable table(header);
  for (const ResolvedGrid& grid : grids) {
    // One row per win-size label, SDC% per max-MBF column (the bar series
    // of the figure); keep cell indices so incomplete campaigns can be
    // marked in place.
    std::map<std::string, std::vector<std::size_t>> byWin;
    std::string singleCell = "-";
    for (std::size_t j = 0; j < grid.configs.size(); ++j) {
      const fi::FaultModel& model = grid.configs[j].model;
      if (model.isSingleBit()) {
        singleCell = grid.cells[j].complete()
                         ? util::fmtPercent(
                               grid.cells[j]
                                   .counts.proportion(stats::Outcome::SDC)
                                   .fraction)
                         : markerText(grid.cells[j]);
        continue;
      }
      byWin[model.spread.label()].push_back(j);
    }
    for (const auto& [win, indices] : byWin) {
      std::vector<std::string> row = {grid.name, win, singleCell};
      for (const unsigned m : fi::FaultModel::paperMaxMbf()) {
        std::size_t found = grid.configs.size();
        for (const std::size_t j : indices) {
          if (grid.configs[j].model.pattern.count == m) found = j;
        }
        if (found == grid.configs.size()) {
          row.push_back("-");
          continue;
        }
        row.push_back(grid.cells[found].complete()
                          ? util::fmtPercent(
                                grid.cells[found]
                                    .counts.proportion(stats::Outcome::SDC)
                                    .fraction)
                          : markerText(grid.cells[found]));
      }
      table.addRow(std::move(row));
    }
  }
  ctx.emit(table);
  ctx.out.text += "\n";
}

void printTableThree(Ctx& ctx, const std::vector<ResolvedGrid>& read,
                     const std::vector<ResolvedGrid>& write) {
  std::string& out = ctx.out.text;
  appendf(out,
          "--- Table III: configurations with the highest SDC%% among all "
          "multi-bit campaigns ---\n");
  util::TextTable table({"program", "read max-MBF", "read win-size",
                         "read best SDC% (valid.)", "read single SDC%",
                         "write max-MBF", "write win-size",
                         "write best SDC% (valid.)", "write single SDC%"});
  int pessimisticRead = 0;
  int pessimisticWrite = 0;
  bool countsKnown = true;
  for (std::size_t i = 0; i < read.size(); ++i) {
    std::vector<std::string> row = {read[i].name};
    for (const ResolvedGrid* grid : {&read[i], &write[i]}) {
      if (!grid->gridComplete) {
        // The argmax itself is unreliable on a partial grid: mark the
        // whole technique side, not just the value columns.
        std::vector<const CellResolution*> cells;
        for (const CellResolution& r : grid->cells) cells.push_back(&r);
        const std::string m = aggregateMarker(cells);
        row.insert(row.end(), {m, m, m, m});
        countsKnown = false;
        continue;
      }
      const pruning::PessimisticPairResult& r = grid->result;
      row.push_back(std::to_string(r.bestModel.pattern.count));
      row.push_back(r.bestModel.spread.label());
      if (grid->validationMarked) {
        row.push_back(markerText(grid->validation));
        countsKnown = false;
      } else {
        row.push_back(util::fmtPercent(r.validatedBestSdc.fraction));
      }
      row.push_back(util::fmtPercent(r.singleSdc.fraction));
    }
    pessimisticRead += read[i].result.singleIsPessimistic() ? 1 : 0;
    pessimisticWrite += write[i].result.singleIsPessimistic() ? 1 : 0;
    table.addRow(std::move(row));
  }
  ctx.emit(table);
  appendf(out,
          "\n(best SDC%% columns are unbiased two-stage re-validations of "
          "the grid argmax; the raw\ngrid maximum overstates SDC%% at small "
          "campaign sizes - winner's curse.)\n");
  if (countsKnown) {
    appendf(out,
            "RQ2: single bit-flip model pessimistic (within 1pp) for %d/%zu "
            "programs (read), %d/%zu (write).\n",
            pessimisticRead, read.size(), pessimisticWrite, write.size());
    int atMostThreeRead = 0;
    int atMostThreeWrite = 0;
    for (const ResolvedGrid& g : read) {
      atMostThreeRead += g.result.bestModel.pattern.count <= 3 ? 1 : 0;
    }
    for (const ResolvedGrid& g : write) {
      atMostThreeWrite += g.result.bestModel.pattern.count <= 3 ? 1 : 0;
    }
    appendf(out,
            "RQ3: best multi-bit config needs <=3 flips for %d/%zu programs "
            "(read) and %d/%zu (write).\n",
            atMostThreeRead, read.size(), atMostThreeWrite, write.size());
  } else {
    appendf(out,
            "RQ2/RQ3: unavailable — %zu figure cell(s) incomplete, missing, "
            "or ambiguous in the store.\n",
            ctx.out.incompleteCells);
  }
  appendf(out,
          "Paper check: read favors 2 flips at large win-sizes; write favors "
          "2-3 flips at small\nwin-sizes (Table III), and the single-bit "
          "model fails to be pessimistic mostly under\ninject-on-write "
          "(RQ2).\n");
}

void renderFig4(Ctx& ctx) {
  const std::size_t n = experimentsPerCampaign(80);
  ctx.out.text +=
      headerNote("Fig. 4 + Fig. 5 + Table III: multi-register injections", n);
  const std::vector<std::string> programs = selectedPrograms();
  std::uint64_t salt = 50000;
  std::vector<ResolvedGrid> read =
      resolveGrids(ctx, programs, fi::FaultDomain::RegisterRead, n, salt);
  std::vector<ResolvedGrid> write =
      resolveGrids(ctx, programs, fi::FaultDomain::RegisterWrite, n, salt);
  printFigure(ctx, "Fig. 4: SDC%, multi-register, inject-on-read", read);
  printFigure(ctx, "Fig. 5: SDC%, multi-register, inject-on-write", write);
  printTableThree(ctx, read, write);
}

std::optional<FigureOutput> render(std::string_view id,
                                   const CellSource& source) {
  Ctx ctx{source, {}};
  if (id == "fig1") {
    renderFig1(ctx);
  } else if (id == "fig2") {
    renderFig2(ctx);
  } else if (id == "fig3") {
    renderFig3(ctx);
  } else if (id == "fig4" || id == "fig5" || id == "table3") {
    renderFig4(ctx);
  } else {
    return std::nullopt;
  }
  return std::move(ctx.out);
}

}  // namespace

CellResolution resolveCell(const Dataset& ds, const CellKey& cell) {
  CellResolution res;
  res.expected = cell.experiments;
  const std::vector<const CampaignTable*> candidates =
      ds.match(cell.workload, cell.model.label(), cell.seed, cell.experiments);
  // Flip-width variants share a spec label (labels never carried the
  // width) but have distinct campaign keys. A fleet cell record pins the
  // width explicitly; a shard-only campaign leaves it unknown, which is
  // acceptable for a lone candidate but ambiguous for several.
  std::vector<const CampaignTable*> viable;
  std::vector<const CampaignTable*> exact;
  for (const CampaignTable* table : candidates) {
    const unsigned width = table->flipWidth();
    if (width == cell.model.flipWidth) exact.push_back(table);
    if (width == 0 || width == cell.model.flipWidth) viable.push_back(table);
  }
  if (exact.size() == 1) viable = exact;
  if (viable.empty()) return res;
  if (viable.size() > 1) {
    res.state = CellResolution::State::Ambiguous;
    return res;
  }
  const CampaignTable& table = *viable.front();
  res.counts = table.totals();
  res.hist = table.histogram();
  res.recorded = table.recordedExperiments();
  res.state = table.complete() ? CellResolution::State::Complete
                               : CellResolution::State::Partial;
  return res;
}

std::optional<FigureOutput> renderFigure(std::string_view id,
                                         const Dataset& ds) {
  return render(id, [&ds](const CellKey& cell) {
    return resolveCell(ds, cell);
  });
}

std::optional<FigureOutput> runFigure(std::string_view id,
                                      const BatchRunner& runBatch) {
  // The label carries every model field but the flip width.
  using CellId = std::tuple<std::string, std::string, unsigned,
                            std::uint64_t, std::size_t>;
  const auto idOf = [](const CellKey& cell) {
    return CellId{cell.workload, cell.model.label(), cell.model.flipWidth,
                  cell.seed, cell.experiments};
  };
  std::map<CellId, CellResolution> ran;
  std::vector<CellKey> pending;  // no render asks for a cell twice
  const CellSource source = [&](const CellKey& cell) {
    if (const auto it = ran.find(idOf(cell)); it != ran.end()) {
      return it->second;
    }
    pending.push_back(cell);
    CellResolution missing;
    missing.expected = cell.experiments;
    return missing;
  };
  for (;;) {
    std::optional<FigureOutput> out = render(id, source);
    if (!out || pending.empty()) return out;
    const std::vector<CellResolution> results = runBatch(pending);
    if (results.size() != pending.size()) {
      throw std::logic_error("figure batch runner answered " +
                             std::to_string(results.size()) + " of " +
                             std::to_string(pending.size()) + " cells");
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
      ran.emplace(idOf(pending[i]), results[i]);
    }
    pending.clear();
  }
}

std::string_view figureIds() {
  return "fig1 fig2 fig3 fig4 (aliases: fig5, table3)";
}

std::string headerNote(std::string_view artifact, std::size_t n) {
  std::string out;
  appendf(out, "== %.*s ==\n", static_cast<int>(artifact.size()),
          artifact.data());
  appendf(out,
          "(%zu experiments per campaign; scale with ONEBIT_EXPERIMENTS; "
          "error bars are 95%% CIs)\n\n",
          n);
  return out;
}

}  // namespace onebit::analytics
