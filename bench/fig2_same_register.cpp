// Fig. 2 (a, b): SDC percentage when injecting 1..30 errors into the SAME
// instruction/register (win-size = 0), per program and technique.
//
// The figure (cells, seeds, table text) is defined once, in
// src/analytics/figures.cpp; `report --figure fig2` renders the same text
// from a store. The whole program × spec cross-product (2×15×11 campaigns
// by default) runs as one fi::CampaignSuite.
#include "bench_common.hpp"

int main() {
  onebit::analytics::checkKnobs();
  return onebit::bench::runFigure("fig2");
}
