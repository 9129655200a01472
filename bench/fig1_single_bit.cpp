// Fig. 1 (a, b): outcome classification of single bit-flip campaigns for
// both injection techniques, per program.
//
// The figure (cells, seeds, table text) is defined once, in
// src/analytics/figures.cpp; `report --figure fig1` renders the same text
// from a store. All 2×15 campaigns run as one fi::CampaignSuite.
#include "bench_common.hpp"

int main() { return onebit::bench::runFigure("fig1"); }
