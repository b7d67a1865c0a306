#include "core/cost_model.h"

#include <gtest/gtest.h>

namespace cm::core {
namespace {

// The counting-network migration message carries 32 bytes = 8 words; the
// size-dependent cost models are calibrated to reproduce Table 5 exactly at
// that size.
constexpr unsigned kFrame = 8;

TEST(CostModel, Table5SizeDependentEntries) {
  const CostModel m = CostModel::software();
  EXPECT_EQ(m.copy(kFrame), 76u);       // "Copy packet (32 bytes)  76"
  EXPECT_EQ(m.marshal(kFrame), 22u);    // "Marshaling              22"
  EXPECT_EQ(m.unmarshal(kFrame), 51u);  // "Unmarshaling            51"
}

TEST(CostModel, Table5FixedEntries) {
  const CostModel m = CostModel::software();
  EXPECT_EQ(m.thread_creation, 66u);
  EXPECT_EQ(m.recv_linkage, 66u);
  EXPECT_EQ(m.oid(), 36u);
  EXPECT_EQ(m.scheduler, 36u);
  EXPECT_EQ(m.forwarding_check, 23u);
  EXPECT_EQ(m.alloc_packet_recv(), 16u);
  EXPECT_EQ(m.send_linkage, 44u);
  EXPECT_EQ(m.alloc_packet_send(), 35u);
  EXPECT_EQ(m.message_send, 23u);
}

TEST(CostModel, SenderTotalNearTable5) {
  // Paper reports sender total 143; the component rows sum to 124 (the
  // paper's totals are "approximate"). We reproduce the component sum.
  const CostModel m = CostModel::software();
  EXPECT_EQ(m.sender_total(kFrame), 44u + 22u + 35u + 23u);
}

TEST(CostModel, ReceiverTotalSumsComponents) {
  const CostModel m = CostModel::software();
  EXPECT_EQ(m.receiver_total(kFrame, true),
            76u + 66u + 66u + 51u + 36u + 36u + 23u + 16u);
  // Short-method fast path: no thread creation.
  EXPECT_EQ(m.receiver_total(kFrame, false),
            m.receiver_total(kFrame, true) - 66u);
}

TEST(CostModel, HwMessageSupportEffects) {
  const CostModel hw = CostModel::software().with_hw_message();
  // "we assumed that we could reduce the copying overhead to approximately
  // twelve cycles"
  EXPECT_EQ(hw.copy(kFrame), 12u);
  // "the registers also remove the need to allocate packets"
  EXPECT_EQ(hw.alloc_packet_send(), 0u);
  EXPECT_EQ(hw.alloc_packet_recv(), 0u);
  // "marshaling and unmarshaling costs are reduced by about half"
  EXPECT_EQ(hw.marshal(kFrame), 11u);
  EXPECT_EQ(hw.unmarshal(kFrame), 26u);
  // Untouched categories stay.
  EXPECT_EQ(hw.thread_creation, 66u);
  EXPECT_EQ(hw.oid(), 36u);
}

TEST(CostModel, HwOidTranslationOnlyRemovesTranslation) {
  const CostModel sw = CostModel::software();
  const CostModel hw = sw.with_hw_oid();
  EXPECT_EQ(hw.oid(), 0u);
  EXPECT_EQ(hw.receiver_total(kFrame, true),
            sw.receiver_total(kFrame, true) - 36u);
  EXPECT_EQ(hw.sender_total(kFrame), sw.sender_total(kFrame));
}

TEST(CostModel, HwMessageRemovesAboutTwentyPercentOfMigration) {
  // Paper §4.3: the register-mapped NI estimate "improved our results by
  // about twenty percent" of the 651-cycle migration (user code 150 +
  // transit 17 + overhead).
  const CostModel sw = CostModel::software();
  const CostModel hw = sw.with_hw_message();
  const double sw_total = 150.0 + 17.0 + sw.sender_total(kFrame) +
                          sw.receiver_total(kFrame, true);
  const double hw_total = 150.0 + 17.0 + hw.sender_total(kFrame) +
                          hw.receiver_total(kFrame, true);
  const double saved = (sw_total - hw_total) / sw_total;
  EXPECT_GT(saved, 0.15);
  EXPECT_LT(saved, 0.30);
}

TEST(CostModel, OverheadDominatesAsInTable5) {
  // Table 5: message overhead is ~74% of the end-to-end migration time.
  const CostModel m = CostModel::software();
  const double overhead = static_cast<double>(m.sender_total(kFrame) +
                                              m.receiver_total(kFrame, true));
  const double total = 150.0 + 17.0 + overhead;
  EXPECT_GT(overhead / total, 0.65);
  EXPECT_LT(overhead / total, 0.85);
}

TEST(CostModel, MarshalingScalesWithWords) {
  const CostModel m = CostModel::software();
  EXPECT_LT(m.marshal(2), m.marshal(16));
  EXPECT_LT(m.unmarshal(2), m.unmarshal(16));
  EXPECT_LT(m.copy(2), m.copy(16));
}

TEST(CostModel, VariantsCompose) {
  const CostModel both = CostModel::software().with_hw_message().with_hw_oid();
  EXPECT_TRUE(both.hw_message);
  EXPECT_TRUE(both.hw_oid);
  EXPECT_EQ(both.oid(), 0u);
  EXPECT_EQ(both.copy(kFrame), 12u);
}

}  // namespace
}  // namespace cm::core
