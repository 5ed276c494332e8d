#include <gtest/gtest.h>

#include "serial/marshal.h"
#include "serial/value.h"
#include "sim/scheduler.h"

namespace mocha::serial {
namespace {

Value round_trip(const Value& in) {
  util::Buffer buf;
  util::WireWriter writer(buf);
  encode_value(writer, in);
  EXPECT_EQ(buf.size(), value_wire_size(in));
  util::WireReader reader(buf);
  return decode_value(reader);
}

TEST(Value, RoundTripsEveryType) {
  EXPECT_TRUE(std::holds_alternative<std::monostate>(round_trip(Value{})));
  EXPECT_EQ(std::get<bool>(round_trip(Value{true})), true);
  EXPECT_EQ(std::get<std::int32_t>(round_trip(Value{std::int32_t{-7}})), -7);
  EXPECT_EQ(std::get<std::int64_t>(round_trip(Value{std::int64_t{1LL << 40}})),
            1LL << 40);
  EXPECT_DOUBLE_EQ(std::get<double>(round_trip(Value{2.718})), 2.718);
  EXPECT_EQ(std::get<std::string>(round_trip(Value{std::string("howdy")})),
            "howdy");
  util::Buffer blob{9, 8, 7};
  EXPECT_EQ(std::get<util::Buffer>(round_trip(Value{blob})), blob);
  std::vector<std::int32_t> ints{1, -2, 3};
  EXPECT_EQ(std::get<std::vector<std::int32_t>>(round_trip(Value{ints})), ints);
  std::vector<double> dbls{0.5, -1.5};
  EXPECT_EQ(std::get<std::vector<double>>(round_trip(Value{dbls})), dbls);
}

TEST(Value, EmptyContainersRoundTrip) {
  EXPECT_EQ(std::get<std::string>(round_trip(Value{std::string()})), "");
  EXPECT_TRUE(std::get<util::Buffer>(round_trip(Value{util::Buffer{}})).empty());
  EXPECT_TRUE(std::get<std::vector<std::int32_t>>(
                  round_trip(Value{std::vector<std::int32_t>{}}))
                  .empty());
}

TEST(Value, TypeNamesAreStable) {
  EXPECT_STREQ(value_type_name(Value{}), "empty");
  EXPECT_STREQ(value_type_name(Value{std::int32_t{1}}), "int32");
  EXPECT_STREQ(value_type_name(Value{std::vector<double>{}}), "double[]");
}

TEST(Value, GarbageTagThrows) {
  util::Buffer buf{0xee};
  util::WireReader reader(buf);
  EXPECT_THROW(decode_value(reader), util::CodecError);
}

// An array count comes off the wire: one larger than the bytes left must
// fail as a CodecError before it sizes an allocation.
TEST(Value, ForgedArrayCountThrows) {
  for (const Value& v : {Value{std::vector<std::int32_t>{1, 2}},
                         Value{std::vector<double>{0.5}}}) {
    util::Buffer buf;
    util::WireWriter writer(buf);
    encode_value(writer, v);
    for (std::size_t i = 1; i < 5; ++i) buf[i] = 0xff;  // after the tag
    util::WireReader reader(buf);
    EXPECT_THROW(decode_value(reader), util::CodecError);
  }
}

TEST(CostModel, Jdk11GrowsLinearly) {
  MarshalCostModel model = MarshalCostModel::jdk11();
  // Fig 8 anchor: ~1 us/byte + ~1 ms fixed => 256K costs ~263 ms.
  EXPECT_NEAR(static_cast<double>(model.cost(256 * 1024)), 263044.0, 5000.0);
  EXPECT_LT(model.cost(16), sim::msec(1));
  // Strictly increasing in size.
  EXPECT_LT(model.cost(1024), model.cost(4096));
  EXPECT_LT(model.cost(4096), model.cost(65536));
}

TEST(CostModel, CustomIsMuchCheaperThanJdk11) {
  auto jdk = MarshalCostModel::jdk11();
  auto custom = MarshalCostModel::custom();
  EXPECT_GT(jdk.cost(256 * 1024), 20 * custom.cost(256 * 1024));
}

TEST(CostModel, ChargesSimulatedProcess) {
  sim::Scheduler sched;
  sim::Time elapsed = 0;
  sched.spawn("marshaler", [&] {
    charge_marshal_cost(MarshalCostModel::jdk11(), 1000);
    elapsed = sched.now();
  });
  sched.run();
  EXPECT_EQ(elapsed, MarshalCostModel::jdk11().cost(1000));
}

TEST(CostModel, NoChargeOutsideSimulation) {
  // Must be a no-op (and not crash) when no scheduler is current.
  charge_marshal_cost(MarshalCostModel::jdk11(), 1 << 20);
}

// --- Serializable / TypeRegistry ---

struct TestPoint : Serializable {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::string label;

  std::string type_name() const override { return "TestPoint"; }
  void serialize(util::WireWriter& out) const override {
    out.i32(x);
    out.i32(y);
    out.str(label);
  }
  void unserialize(util::WireReader& in) override {
    x = in.i32();
    y = in.i32();
    label = in.str();
  }
  std::unique_ptr<Serializable> clone() const override {
    return std::make_unique<TestPoint>(*this);
  }
};

TypeRegistration<TestPoint> register_test_point("TestPoint");

TEST(Serializable, ObjectRoundTripsThroughRegistry) {
  TestPoint p;
  p.x = 3;
  p.y = -9;
  p.label = "origin-ish";
  util::Buffer buf = serialize_object(p);
  auto rebuilt = unserialize_object(buf);
  auto* q = dynamic_cast<TestPoint*>(rebuilt.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->x, 3);
  EXPECT_EQ(q->y, -9);
  EXPECT_EQ(q->label, "origin-ish");
}

TEST(Serializable, UnknownTypeThrows) {
  util::Buffer buf;
  util::WireWriter writer(buf);
  writer.str("NoSuchType");
  EXPECT_THROW(unserialize_object(buf), util::CodecError);
}

TEST(Serializable, CloneIsDeep) {
  TestPoint p;
  p.label = "a";
  auto c = p.clone();
  p.label = "b";
  EXPECT_EQ(dynamic_cast<TestPoint*>(c.get())->label, "a");
}

TEST(Serializable, RegistryKnowsRegisteredTypes) {
  EXPECT_TRUE(TypeRegistry::instance().has_type("TestPoint"));
  EXPECT_FALSE(TypeRegistry::instance().has_type("Bogus"));
}

}  // namespace
}  // namespace mocha::serial
