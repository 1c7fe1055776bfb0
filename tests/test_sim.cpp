// Tests for the word-parallel logic simulator (digital/sim.h), including
// fault-mask injection and sequential behaviour.
#include "digital/sim.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "digital/builder.h"
#include "stats/rng.h"

namespace msts::digital {
namespace {

TEST(ParallelSimulator, EvaluatesAllGateTypes) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  struct Case {
    GateType type;
    bool expected[4];  // for (a,b) in {00,01,10,11}
  };
  const Case cases[] = {
      {GateType::kAnd, {false, false, false, true}},
      {GateType::kOr, {false, true, true, true}},
      {GateType::kNand, {true, true, true, false}},
      {GateType::kNor, {true, false, false, false}},
      {GateType::kXor, {false, true, true, false}},
      {GateType::kXnor, {true, false, false, true}},
  };
  std::vector<NetId> nets;
  for (const Case& c : cases) nets.push_back(nl.add_gate(c.type, a, b));
  const NetId nb = nl.add_gate(GateType::kNot, a);
  const NetId bb = nl.add_gate(GateType::kBuf, a);

  ParallelSimulator sim(nl);
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      sim.set_input(a, av != 0);
      sim.set_input(b, bv != 0);
      sim.eval();
      const int idx = av * 2 + bv;
      for (std::size_t i = 0; i < nets.size(); ++i) {
        EXPECT_EQ(sim.value_in_machine(nets[i], 0), cases[i].expected[idx])
            << to_string(cases[i].type) << " a=" << av << " b=" << bv;
      }
      EXPECT_EQ(sim.value_in_machine(nb, 0), av == 0);
      EXPECT_EQ(sim.value_in_machine(bb, 0), av != 0);
    }
  }
}

TEST(ParallelSimulator, ConstantsEvaluate) {
  Netlist nl;
  const NetId c0 = nl.add_const(false);
  const NetId c1 = nl.add_const(true);
  ParallelSimulator sim(nl);
  sim.eval();
  EXPECT_FALSE(sim.value_in_machine(c0, 0));
  EXPECT_TRUE(sim.value_in_machine(c1, 17));
}

TEST(ParallelSimulator, BroadcastFillsAllMachines) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  ParallelSimulator sim(nl);
  sim.set_input(a, true);
  sim.eval();
  EXPECT_EQ(sim.value(a), ~0ull);
  for (int m = 0; m < 64; ++m) EXPECT_TRUE(sim.value_in_machine(a, m));
}

TEST(ParallelSimulator, StuckAtFaultsAffectOnlyTheirMachine) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g = nl.add_gate(GateType::kAnd, a, b);
  ParallelSimulator sim(nl);
  sim.inject(Fault{g, /*stuck_at_one=*/true}, 5);
  sim.inject(Fault{a, /*stuck_at_one=*/false}, 9);
  sim.set_input(a, true);
  sim.set_input(b, false);
  sim.eval();
  // Good machine: AND(1,0) = 0. Machine 5: output stuck at 1.
  EXPECT_FALSE(sim.value_in_machine(g, 0));
  EXPECT_TRUE(sim.value_in_machine(g, 5));
  // Machine 9: input a stuck at 0 -> AND still 0 here; check the net itself.
  EXPECT_FALSE(sim.value_in_machine(a, 9));
  EXPECT_TRUE(sim.value_in_machine(a, 0));
  sim.clear_faults();
  sim.eval();
  EXPECT_FALSE(sim.value_in_machine(g, 5));
  EXPECT_TRUE(sim.value_in_machine(a, 9));
}

TEST(ParallelSimulator, FaultPropagatesThroughLogic) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId inv = nl.add_gate(GateType::kNot, a);
  const NetId buf = nl.add_gate(GateType::kBuf, inv);
  ParallelSimulator sim(nl);
  sim.inject(Fault{a, true}, 3);
  sim.set_input(a, false);
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(buf, 0));   // good: NOT(0) = 1
  EXPECT_FALSE(sim.value_in_machine(buf, 3));  // faulty: NOT(1) = 0
}

TEST(ParallelSimulator, DffShiftsOnClock) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q1 = nl.add_dff(a);
  const NetId q2 = nl.add_dff(q1);
  nl.mark_output(q2);
  ParallelSimulator sim(nl);

  const bool pattern[] = {true, false, true, true, false};
  std::vector<bool> seen_q2;
  for (bool v : pattern) {
    sim.set_input(a, v);
    sim.eval();
    seen_q2.push_back(sim.value_in_machine(q2, 0));
    sim.clock();
  }
  // q2 lags the input by two cycles, starting from reset state 0.
  EXPECT_EQ(seen_q2[0], false);
  EXPECT_EQ(seen_q2[1], false);
  EXPECT_EQ(seen_q2[2], pattern[0]);
  EXPECT_EQ(seen_q2[3], pattern[1]);
  EXPECT_EQ(seen_q2[4], pattern[2]);
}

TEST(ParallelSimulator, ResetClearsState) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_dff(a);
  ParallelSimulator sim(nl);
  sim.set_input(a, true);
  sim.eval();
  sim.clock();
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(q, 0));
  sim.reset_state();
  sim.eval();
  EXPECT_FALSE(sim.value_in_machine(q, 0));
}

TEST(ParallelSimulator, StateFaultPersistsAcrossCycles) {
  // A stuck-at on a DFF output keeps overriding the latched value.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_dff(a);
  nl.mark_output(q);
  ParallelSimulator sim(nl);
  sim.inject(Fault{q, true}, 1);
  sim.set_input(a, false);
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim.eval();
    EXPECT_FALSE(sim.value_in_machine(q, 0)) << "cycle " << cycle;
    EXPECT_TRUE(sim.value_in_machine(q, 1)) << "cycle " << cycle;
    sim.clock();
  }
}

TEST(ParallelSimulator, BusRoundTripTwosComplement) {
  Netlist nl;
  NetlistBuilder b(nl);
  const Bus bus = b.input_bus("x", 8);
  ParallelSimulator sim(nl);
  for (std::int64_t v : {0ll, 1ll, -1ll, 127ll, -128ll, 42ll, -37ll}) {
    sim.set_bus(bus, v);
    sim.eval();
    EXPECT_EQ(sim.bus_value(bus, 0), v);
    EXPECT_EQ(sim.bus_value(bus, 63), v);
  }
}

TEST(ParallelSimulator, GroupBusValuesMatchBusValueForEveryMachine) {
  // Random stuck-at faults on the input nets give every machine its own bus
  // value; the transposed planes must decode to bus_value() in all of them,
  // including the sign-extension edges at widths 1, 63 and 64.
  Netlist nl;
  Bus x;
  for (int i = 0; i < 64; ++i) x.bits.push_back(nl.add_input("x" + std::to_string(i)));
  stats::Rng rng(11);
  for (const std::size_t words : {1u, 4u, 8u}) {
    for (const std::size_t width : {1u, 26u, 63u, 64u}) {
      Bus bus;
      bus.bits.assign(x.bits.begin(), x.bits.begin() + static_cast<std::ptrdiff_t>(width));
      ParallelSimulator sim(nl, words);
      for (int m = 0; m < static_cast<int>(sim.machines()); ++m) {
        for (int k = 0; k < 8; ++k) {
          sim.inject(Fault{x.bits[rng.uniform_int(width)], rng.uniform() < 0.5}, m);
        }
      }
      sim.set_bus(x, static_cast<std::int64_t>(rng.next_u64()));
      sim.eval();
      std::vector<std::uint64_t> planes(width * words);
      sim.capture_planes(bus, planes.data());
      std::int64_t values[64];
      for (std::size_t g = 0; g < words; ++g) {
        ParallelSimulator::group_bus_values(planes.data(), width, words, g, values);
        for (std::size_t j = 0; j < 64; ++j) {
          const int m = static_cast<int>(64 * g + j);
          ASSERT_EQ(values[j], sim.bus_value(bus, m))
              << "words " << words << " width " << width << " machine " << m;
        }
      }
    }
  }
}

TEST(ParallelSimulator, RejectsBadUsage) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId g = nl.add_gate(GateType::kNot, a);
  ParallelSimulator sim(nl);
  EXPECT_THROW(sim.set_input(g, true), std::invalid_argument);
  EXPECT_THROW(sim.inject(Fault{99, false}, 0), std::invalid_argument);
  const int machines = static_cast<int>(sim.machines());
  EXPECT_THROW(sim.inject(Fault{a, false}, machines), std::invalid_argument);
  EXPECT_THROW(sim.value_in_machine(a, machines), std::invalid_argument);
  EXPECT_THROW(sim.value_in_machine(a, -1), std::invalid_argument);

  // A one-word simulator keeps the classic 64-machine bound.
  ParallelSimulator narrow(nl, 1);
  EXPECT_EQ(narrow.machines(), 64u);
  EXPECT_THROW(narrow.inject(Fault{a, false}, 64), std::invalid_argument);
}

// A chain a -> b1 -> b2 -> b3 read by NOT and by an XOR with input c, and
// a DFF latching b3: every BUF is an unfaulted alias until a fault lands on
// one.
struct BufChain {
  Netlist nl;
  NetId a, c, b1, b2, b3, inv, x, q;
  BufChain() {
    a = nl.add_input("a");
    c = nl.add_input("c");
    b1 = nl.add_gate(GateType::kBuf, a);
    b2 = nl.add_gate(GateType::kBuf, b1);
    b3 = nl.add_gate(GateType::kBuf, b2);
    inv = nl.add_gate(GateType::kNot, b3);
    x = nl.add_gate(GateType::kXor, b3, c);
    q = nl.add_dff(b3);
  }
};

TEST(ParallelSimulator, AliasedBufReadsItsRoot) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.set_input(t.a, true);
  sim.eval();
  // a, c, inv, x and q are stored; the three BUFs alias a.
  EXPECT_EQ(sim.stored_nets(), 5u);
  EXPECT_EQ(sim.gate_ops(), 2u);
  for (const NetId b : {t.b1, t.b2, t.b3}) {
    EXPECT_EQ(sim.value_words(b), sim.value_words(t.a));
    EXPECT_EQ(sim.value(b), ~0ull);
    EXPECT_TRUE(sim.value_in_machine(b, 17));
  }
  EXPECT_FALSE(sim.value_in_machine(t.inv, 0));
  EXPECT_TRUE(sim.value_in_machine(t.x, 0));
}

TEST(ParallelSimulator, FaultOnMidChainBufSplitsTheChain) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.inject(Fault{t.b2, /*stuck_at_one=*/false}, 3);
  sim.set_input(t.a, true);
  sim.eval();
  EXPECT_EQ(sim.stored_nets(), 6u);  // b2 is a root now; b1 and b3 alias a, b2
  EXPECT_TRUE(sim.value_in_machine(t.b1, 3));  // upstream of the site
  EXPECT_FALSE(sim.value_in_machine(t.b2, 3));
  EXPECT_FALSE(sim.value_in_machine(t.b3, 3));
  EXPECT_TRUE(sim.value_in_machine(t.inv, 3));
  EXPECT_FALSE(sim.value_in_machine(t.x, 3));
  for (const NetId n : {t.b1, t.b2, t.b3}) EXPECT_TRUE(sim.value_in_machine(n, 0));
  EXPECT_EQ(sim.value_words(t.b3), sim.value_words(t.b2));
  sim.clock();
  sim.eval();
  EXPECT_FALSE(sim.value_in_machine(t.q, 3));
  EXPECT_TRUE(sim.value_in_machine(t.q, 0));
}

TEST(ParallelSimulator, FaultOnChainRootReachesEveryAlias) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.inject(Fault{t.a, /*stuck_at_one=*/true}, 5);
  sim.set_input(t.a, false);
  sim.eval();
  EXPECT_EQ(sim.stored_nets(), 5u);  // the chain still aliases a
  for (const NetId n : {t.a, t.b1, t.b2, t.b3}) {
    EXPECT_TRUE(sim.value_in_machine(n, 5));
    EXPECT_FALSE(sim.value_in_machine(n, 0));
  }
  EXPECT_FALSE(sim.value_in_machine(t.inv, 5));
}

TEST(ParallelSimulator, InjectAfterEvalKeepsDffStateAndReroutesTheSweep) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.set_input(t.a, true);
  sim.eval();
  sim.clock();  // q = 1 in every machine
  sim.inject(Fault{t.b3, /*stuck_at_one=*/false}, 2);
  sim.set_input(t.a, false);
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(t.q, 0));  // state survived the rebuild
  EXPECT_TRUE(sim.value_in_machine(t.q, 2));
  EXPECT_EQ(sim.gate_ops(), 3u);  // b3 is swept now
  sim.set_input(t.a, true);
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(t.b3, 0));
  EXPECT_FALSE(sim.value_in_machine(t.b3, 2));
  EXPECT_TRUE(sim.value_in_machine(t.b2, 2));
  sim.clock();
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(t.q, 0));
  EXPECT_FALSE(sim.value_in_machine(t.q, 2));
}

TEST(ParallelSimulator, ClockAfterInjectLatchesTheLastEval) {
  // inject() between eval() and clock(): the rebuild carries the evaluated
  // values over, so the DFF latches what the last eval() computed.
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.set_input(t.a, true);
  sim.eval();
  sim.inject(Fault{t.b3, /*stuck_at_one=*/false}, 6);
  sim.clock();
  sim.eval();
  EXPECT_TRUE(sim.value_in_machine(t.q, 0));
  EXPECT_TRUE(sim.value_in_machine(t.q, 6));
  EXPECT_FALSE(sim.value_in_machine(t.b3, 6));
}

TEST(ParallelSimulator, ClearFaultsRestoresTheAliasing) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  sim.eval();
  const std::size_t stored = sim.stored_nets();
  const std::size_t ops = sim.gate_ops();
  sim.inject(Fault{t.b1, true}, 1);
  sim.inject(Fault{t.b3, false}, 4);
  sim.eval();
  EXPECT_EQ(sim.stored_nets(), stored + 2);
  EXPECT_EQ(sim.gate_ops(), ops + 2);
  sim.clear_faults();
  sim.set_input(t.a, false);
  sim.eval();
  EXPECT_EQ(sim.stored_nets(), stored);
  EXPECT_EQ(sim.gate_ops(), ops);
  EXPECT_EQ(sim.value_words(t.b3), sim.value_words(t.a));
  for (int m : {0, 1, 4}) EXPECT_FALSE(sim.value_in_machine(t.b3, m));
}

TEST(ParallelSimulator, GoodRowHoldsEveryNetThatCanBeHeld) {
  // A branched random circuit: every non-BUF net can be held, and its row
  // bit must be its good value; load_held must read the same bits back.
  Netlist base;
  stats::Rng rng(23);
  std::vector<NetId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(base.add_input());
  pool.push_back(base.add_const(true));
  for (int g = 0; g < 80; ++g) {
    if (rng.uniform() < 0.1) {
      pool.push_back(base.add_dff(pool[rng.uniform_int(pool.size())]));
      continue;
    }
    const GateType kinds[] = {GateType::kAnd, GateType::kXor, GateType::kNor, GateType::kBuf};
    pool.push_back(base.add_gate(kinds[rng.uniform_int(4)], pool[rng.uniform_int(pool.size())],
                                 pool[rng.uniform_int(pool.size())]));
  }
  const Netlist nl = base.with_explicit_branches();
  ParallelSimulator whole(nl, 1);
  std::vector<NetId> roots;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.gate(n).type != GateType::kBuf) roots.push_back(n);
  }
  ASSERT_EQ(whole.row_words(), (roots.size() + 63) / 64);
  // Two restricted simulators fed from the row: one with only the last
  // logic gate live (its fan-in roots are held), one with every logic gate
  // live and every source held.
  NetId last = static_cast<NetId>(nl.num_nets() - 1);
  while (nl.gate(last).type == GateType::kBuf || arity(nl.gate(last).type) != 2) --last;
  std::vector<std::uint8_t> one(nl.num_nets(), 0), logic(nl.num_nets(), 0);
  one[last] = 1;
  for (NetId n = 0; n < nl.num_nets(); ++n) logic[n] = arity(nl.gate(n).type) > 0 &&
                                                        nl.gate(n).type != GateType::kDff;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (const NetId in : nl.inputs()) whole.set_input(in, rng.uniform() < 0.5);
    whole.eval();
    std::vector<std::uint64_t> row(whole.row_words(), ~0ull);
    whole.good_row(row.data());
    for (std::size_t k = 0; k < roots.size(); ++k) {
      ASSERT_EQ(((row[k / 64] >> (k % 64)) & 1ull) != 0,
                whole.value_in_machine(roots[k], 0))
          << "net " << roots[k] << " cycle " << cycle;
    }
    for (const auto* live : {&one, &logic}) {
      ParallelSimulator part(nl, 4, *live);
      part.load_held(row.data());
      part.eval();
      // Readable: the live nets and what they read.
      std::vector<std::uint8_t> readable(*live);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        if (!(*live)[n]) continue;
        const Gate& g = nl.gate(n);
        readable[g.fanin0] = 1;
        if (arity(g.type) == 2) readable[g.fanin1] = 1;
      }
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        if (!readable[n]) continue;
        ASSERT_EQ(part.value_words(n)[3], whole.value_in_machine(n, 0) ? ~0ull : 0ull)
            << "net " << n << " cycle " << cycle;
      }
    }
    whole.clock();
  }
}

TEST(ParallelSimulator, StaleAccessorsThrowNamingTheCause) {
  BufChain t;
  ParallelSimulator sim(t.nl, 1);
  EXPECT_THROW(sim.stored_nets(), std::invalid_argument);  // built on first use
  sim.eval();
  sim.inject(Fault{t.b2, true}, 1);
  for (auto read : std::initializer_list<std::function<void()>>{
           [&] { (void)sim.value_words(t.b3); },
           [&] { (void)sim.value_in_machine(t.b2, 1); },
           [&] { (void)sim.stored_nets(); },
           [&] { (void)sim.gate_ops(); },
           [&] {
             std::vector<std::uint64_t> row(sim.row_words());
             sim.good_row(row.data());
           }}) {
    try {
      read();
      ADD_FAILURE() << "a stale program was read";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos) << e.what();
    }
  }
  sim.eval();  // rebuilds
  EXPECT_TRUE(sim.value_in_machine(t.b3, 1));
  EXPECT_FALSE(sim.value_in_machine(t.b3, 0));
}

}  // namespace
}  // namespace msts::digital
