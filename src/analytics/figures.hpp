// The paper figures fig1–fig4 (Fig. 5 and Table III print with fig4),
// written once. Each figure is one render function that asks a cell source
// for every campaign cell it needs and builds the figure's text from the
// answers. Two sources feed the same renders:
//
//   * a Dataset (renderFigure): `report --figure` answers every cell from
//     recorded shard aggregates alone — no workload compilation, no
//     experiment execution;
//   * a batch runner (runFigure): the bench drivers render, hand the cells
//     the render asked for and nobody has run yet to the runner, and render
//     again until a render asks for nothing new. fig1–fig3 need one batch;
//     fig4 needs two, because its validation campaigns depend on the
//     argmax of a complete grid.
//
// Because both paths share the cell walk (which seeds, which models, which
// programs) and the table text, a complete store regenerates the driver's
// stdout BYTE-IDENTICALLY — CI diffs the two (scripts/analytics_smoke.sh).
//
// A cell that is only partially recorded (a live store, or a run capped by
// ONEBIT_MAX_SHARDS), absent, or ambiguous is NEVER silently folded into a
// figure value: the affected table cells are replaced by explicit
// "incomplete(recorded/expected)" / "missing" / "ambiguous" markers,
// derived counts (Fig. 4's RQ2/RQ3 lines) are replaced by an unavailable
// note, and FigureOutput::complete() turns false (the report CLI exits 3).
//
// Cell resolution against a Dataset matches campaigns by (workload, spec
// label, seed, experiments) — the identity a shard record carries — and
// disambiguates flip-width variants (which share a spec label but have
// distinct campaign keys) through the fleet cell record's explicit
// flip_width when present; two otherwise indistinguishable candidates
// render as "ambiguous", never merged. Selection knobs come from
// analytics/knobs.hpp on both paths.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/dataset.hpp"
#include "fi/fault_model.hpp"

namespace onebit::analytics {

/// One campaign cell a figure needs: the identity a shard record carries,
/// with the flip width the figure applied (knobs::flipWidth()) in `model`.
struct CellKey {
  std::string workload;
  fi::FaultModel model;
  std::uint64_t seed = 0;
  std::size_t experiments = 0;
};

/// How a source answered for one figure campaign cell.
struct CellResolution {
  enum class State {
    Complete,   ///< every experiment recorded — exact figure value
    Partial,    ///< some shards recorded (a live, interrupted or capped run)
    Missing,    ///< no matching campaign
    Ambiguous,  ///< several flip-width-indistinguishable candidates
  };
  State state = State::Missing;
  stats::OutcomeCounts counts;       ///< recorded shards only
  fi::ActivationHistogram hist{};    ///< recorded shards only
  std::size_t recorded = 0;
  std::size_t expected = 0;

  [[nodiscard]] bool complete() const noexcept {
    return state == State::Complete;
  }
};

/// Resolve one campaign cell against the Dataset.
CellResolution resolveCell(const Dataset& ds, const CellKey& cell);

/// A rendered figure.
struct FigureOutput {
  std::string text;                 ///< the driver's stdout (or marked-up
                                    ///< partial rendering)
  std::size_t cells = 0;            ///< campaign cells the figure needs
  std::size_t incompleteCells = 0;  ///< of those: partial/missing/ambiguous

  [[nodiscard]] bool complete() const noexcept {
    return incompleteCells == 0;
  }
};

/// Render figure `id` ("fig1".."fig4"; "fig5" and "table3" alias "fig4",
/// which prints all three artifacts like the driver does) from the Dataset
/// under the current ONEBIT_* selection knobs, its tables as CSV when `csv`.
/// Returns nullopt for an unknown id.
std::optional<FigureOutput> renderFigure(std::string_view id,
                                         const Dataset& ds, bool csv);

/// Runs a batch of cells and answers each, in order (one resolution per
/// cell). A cell the runner leaves Partial is never handed to it again.
using BatchRunner =
    std::function<std::vector<CellResolution>(const std::vector<CellKey>&)>;

/// Render figure `id`, handing every cell a render asks for that has not
/// been run yet to `runBatch` (one call per round, cells in the order the
/// render first asked for them), until a render asks for nothing new.
/// Tables are CSV when `csv`. Returns the last render; nullopt for an
/// unknown id.
std::optional<FigureOutput> runFigure(std::string_view id,
                                      const BatchRunner& runBatch, bool csv);

/// The known figure ids, for usage text: "fig1 fig2 fig3 fig4 (aliases:
/// fig5, table3)".
std::string_view figureIds();

/// The two-line banner every paper-artifact driver prints first.
std::string headerNote(std::string_view artifact, std::size_t n);

}  // namespace onebit::analytics
