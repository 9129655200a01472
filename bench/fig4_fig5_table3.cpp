// Fig. 4 / Fig. 5 / Table III from one grid computation:
//   * Fig. 4: SDC% for multi-register injections, inject-on-read
//   * Fig. 5: same for inject-on-write
//   * Table III: the (max-MBF, win-size) pair with the highest SDC% per
//     program and technique, compared against the single bit-flip model.
//
// The figures (cells, seeds, table text) are defined once, in
// src/analytics/figures.cpp; `report --figure fig4` renders the same text
// from a store. The run takes two suites: every grid campaign of every
// program × technique (~2430 campaigns), then the re-validation campaigns
// of each complete grid's pessimistic pair. Results are bit-identical to
// the serial pruning::findPessimisticPair path (same specs, same seeds).
#include "bench_common.hpp"

int main() {
  onebit::analytics::checkKnobs();
  return onebit::bench::runFigure("fig4");
}
