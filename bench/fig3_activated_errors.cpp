// Fig. 3 (a, b): distribution of the number of ACTIVATED errors before a
// crash, when intending to inject 30 (max-MBF = 30), aggregated over all
// win-size values — the RQ1 analysis.
//
// The figure (cells, seeds, table text) is defined once, in
// src/analytics/figures.cpp; `report --figure fig3` renders the same text
// from a store. Every activation campaign (2 techniques × 15 programs × 9
// win-sizes) runs as one fi::CampaignSuite.
#include "bench_common.hpp"

int main() {
  onebit::analytics::checkKnobs();
  return onebit::bench::runFigure("fig3");
}
