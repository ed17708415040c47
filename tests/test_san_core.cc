#include <gtest/gtest.h>

#include "src/san/marking.h"
#include "src/san/model.h"

namespace {

using ckptsim::san::ActivitySpec;
using ckptsim::san::ExtendedPlaceId;
using ckptsim::san::InputArc;
using ckptsim::san::InputGate;
using ckptsim::san::Marking;
using ckptsim::san::Model;
using ckptsim::san::OutputArc;
using ckptsim::san::PlaceId;

TEST(Marking, TokenArithmetic) {
  Marking m(3, 1);
  const PlaceId p{1};
  EXPECT_EQ(m.tokens(p), 0);
  m.set_tokens(p, 5);
  EXPECT_EQ(m.tokens(p), 5);
  m.add_tokens(p, -3);
  EXPECT_EQ(m.tokens(p), 2);
  EXPECT_TRUE(m.has(p));
  EXPECT_TRUE(m.has(p, 2));
  EXPECT_FALSE(m.has(p, 3));
}

TEST(Marking, RejectsNegativeTokens) {
  Marking m(1, 0);
  const PlaceId p{0};
  EXPECT_THROW(m.set_tokens(p, -1), std::logic_error);
  EXPECT_THROW(m.add_tokens(p, -1), std::logic_error);
}

TEST(Marking, ExtendedPlacesHoldReals) {
  Marking m(0, 2);
  const ExtendedPlaceId x{0};
  m.set_real(x, 3.25);
  EXPECT_DOUBLE_EQ(m.real(x), 3.25);
  m.add_real(x, 1.0);
  EXPECT_DOUBLE_EQ(m.real(x), 4.25);
}

TEST(Marking, VersionBumpsOnEveryMutation) {
  Marking m(1, 1);
  const auto v0 = m.version();
  m.set_tokens(PlaceId{0}, 1);
  const auto v1 = m.version();
  EXPECT_GT(v1, v0);
  m.set_real(ExtendedPlaceId{0}, 1.0);
  EXPECT_GT(m.version(), v1);
}

TEST(Marking, OutOfRangeAccessThrows) {
  Marking m(1, 1);
  EXPECT_THROW((void)m.tokens(PlaceId{5}), std::out_of_range);
  EXPECT_THROW((void)m.real(ExtendedPlaceId{5}), std::out_of_range);
}

TEST(Model, PlacesByName) {
  Model m;
  const PlaceId a = m.add_place("a", 2);
  EXPECT_TRUE(m.has_place("a"));
  EXPECT_FALSE(m.has_place("b"));
  EXPECT_EQ(m.place("a").idx, a.idx);
  EXPECT_EQ(m.place_name(a), "a");
  EXPECT_THROW((void)m.place("missing"), std::out_of_range);
  EXPECT_THROW(m.add_place("a", 0), std::invalid_argument);
  EXPECT_THROW(m.add_place("neg", -1), std::invalid_argument);
}

TEST(Model, GetOrAddSharesState) {
  Model m;
  const PlaceId first = m.get_or_add_place("shared", 1);
  const PlaceId second = m.get_or_add_place("shared", 99);  // initial ignored
  EXPECT_EQ(first.idx, second.idx);
  EXPECT_EQ(m.initial_marking().tokens(first), 1);
}

TEST(Model, ExtendedPlaces) {
  Model m;
  const auto x = m.add_extended_place("x", 2.5);
  EXPECT_EQ(m.extended_place("x").idx, x.idx);
  EXPECT_DOUBLE_EQ(m.initial_marking().real(x), 2.5);
  EXPECT_THROW(m.add_extended_place("x"), std::invalid_argument);
  EXPECT_THROW((void)m.extended_place("y"), std::out_of_range);
}

TEST(Model, InitialMarkingReflectsDeclarations) {
  Model m;
  const PlaceId a = m.add_place("a", 3);
  const PlaceId b = m.add_place("b", 0);
  const Marking init = m.initial_marking();
  EXPECT_EQ(init.tokens(a), 3);
  EXPECT_EQ(init.tokens(b), 0);
}

TEST(Model, ActivityValidation) {
  Model m;
  const PlaceId p = m.add_place("p", 1);

  ActivitySpec missing_sampler;
  missing_sampler.name = "t";
  missing_sampler.timed = true;
  EXPECT_THROW(m.add_activity(missing_sampler), std::invalid_argument);

  ActivitySpec inst_with_sampler;
  inst_with_sampler.name = "i";
  inst_with_sampler.timed = false;
  inst_with_sampler.latency = [](const Marking&, ckptsim::sim::Rng&) { return 1.0; };
  EXPECT_THROW(m.add_activity(inst_with_sampler), std::invalid_argument);

  ActivitySpec bad_arc;
  bad_arc.name = "b";
  bad_arc.timed = false;
  bad_arc.input_arcs = {InputArc{PlaceId{42}, 1}};
  EXPECT_THROW(m.add_activity(bad_arc), std::invalid_argument);

  ActivitySpec zero_mult;
  zero_mult.name = "z";
  zero_mult.timed = false;
  zero_mult.input_arcs = {InputArc{p, 0}};
  EXPECT_THROW(m.add_activity(zero_mult), std::invalid_argument);

  ActivitySpec empty_gate;
  empty_gate.name = "g";
  empty_gate.timed = false;
  empty_gate.input_gates = {InputGate{"gate", nullptr, {}, {}}};
  EXPECT_THROW(m.add_activity(empty_gate), std::invalid_argument);

  ActivitySpec ok;
  ok.name = "ok";
  ok.timed = false;
  ok.input_arcs = {InputArc{p, 1}};
  const auto id = m.add_activity(ok);
  EXPECT_EQ(m.activity_id("ok").idx, id.idx);
  EXPECT_TRUE(m.has_activity("ok"));
  EXPECT_FALSE(m.has_activity("nope"));
  EXPECT_EQ(m.activity_name(id), "ok");

  ActivitySpec dup;
  dup.name = "ok";
  dup.timed = false;
  EXPECT_THROW(m.add_activity(dup), std::invalid_argument);
  EXPECT_THROW((void)m.activity_id("nope"), std::out_of_range);
}

TEST(Model, EnabledChecksArcsAndGates) {
  Model m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId q = m.add_place("q", 0);

  ActivitySpec spec;
  spec.name = "a";
  spec.timed = false;
  spec.input_arcs = {InputArc{p, 2}};
  spec.input_gates = {InputGate{"needs_q", [q](const Marking& mk) { return mk.has(q); }, {}, {}}};
  m.add_activity(spec);

  Marking mk = m.initial_marking();
  EXPECT_FALSE(Model::enabled(m.activity(m.activity_id("a")), mk));  // only 1 token in p
  mk.set_tokens(p, 2);
  EXPECT_FALSE(Model::enabled(m.activity(m.activity_id("a")), mk));  // gate fails
  mk.set_tokens(q, 1);
  EXPECT_TRUE(Model::enabled(m.activity(m.activity_id("a")), mk));
}

TEST(Model, DescribeListsEverything) {
  Model m;
  m.add_place("alpha", 1);
  m.add_extended_place("beta", 0.5);
  ActivitySpec spec;
  spec.name = "gamma";
  spec.timed = true;
  spec.latency = [](const Marking&, ckptsim::sim::Rng&) { return 1.0; };
  m.add_activity(spec);
  const std::string d = m.describe();
  EXPECT_NE(d.find("alpha"), std::string::npos);
  EXPECT_NE(d.find("beta"), std::string::npos);
  EXPECT_NE(d.find("gamma"), std::string::npos);
  EXPECT_NE(d.find("[timed]"), std::string::npos);
}

}  // namespace
