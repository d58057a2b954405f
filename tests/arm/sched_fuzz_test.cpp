// Hardening of the typed-acquire wire format (DESIGN.md §13): the versioned
// request extension must reject truncation at every byte (including a frame
// that stops after the prefix), bound every enum-like field, drop malformed
// frames whole (no partial application to the lease machine), and answer
// absurd-but-well-formed values with one clean status.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arm/arm.hpp"
#include "arm/lease_machine.hpp"
#include "proto/wire.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dacc::arm {
namespace {

using proto::WireError;
using proto::WireReader;
using proto::WireWriter;

ResourceRequest sample_request() {
  return ResourceRequest{}
      .with_job(42)
      .with_count(3)
      .with_wait(true)
      .with_kind("gpu")
      .with_memory(2_GiB)
      .with_gang(false)
      .with_priority(kPriorityHigh)
      .with_locality(7);
}

util::Buffer encode(const ResourceRequest& req) {
  WireWriter w;
  req.encode_body(w);
  return w.finish();
}

/// The prefix of `req` (job, count, wait, kind) without the extension.
util::Buffer encode_prefix(const ResourceRequest& req) {
  return WireWriter{}
      .u64(req.job)
      .u32(req.count)
      .u32(req.wait ? 1 : 0)
      .str(req.kind)
      .finish();
}

TEST(SchedWireFuzz, RequestRoundTripsWithExtension) {
  const ResourceRequest req = sample_request();
  const util::Buffer body = encode(req);
  WireReader r(body.view());
  const ResourceRequest back = ResourceRequest::decode_body(r);
  EXPECT_EQ(back.job, req.job);
  EXPECT_EQ(back.count, req.count);
  EXPECT_EQ(back.wait, req.wait);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.memory_bytes, req.memory_bytes);
  EXPECT_EQ(back.gang, req.gang);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.locality, req.locality);
}

TEST(SchedWireFuzz, PrefixOnlyFrameRejected) {
  // Every encoder writes the extension; a body that ends after the prefix
  // is malformed, not a request with default extension fields.
  const util::Buffer prefix = encode_prefix(sample_request());
  WireReader r(prefix.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, TruncationThrowsAtEveryCut) {
  const util::Buffer full = encode(sample_request());
  for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(full.slice(0, cut));
    EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError)
        << "cut at " << cut;
  }
}

TEST(SchedWireFuzz, UnknownExtensionVersionRejected) {
  WireWriter w;
  w.u64(1).u32(1).u32(0).str("gpu");
  w.u32(kAcquireExtVersion + 1).u64(0).u32(0).u32(1).u64(~0ull);
  const util::Buffer body = w.finish();
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, PriorityAboveWireBoundRejected) {
  ResourceRequest req = sample_request();
  req.priority = kMaxPriority + 1;
  const util::Buffer body = encode(req);
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, TrailingBytesAfterExtensionRejected) {
  WireWriter w;
  sample_request().encode_body(w);
  w.u32(0xDEAD);
  const util::Buffer body = w.finish();
  WireReader r(body.view());
  EXPECT_THROW((void)ResourceRequest::decode_body(r), WireError);
}

TEST(SchedWireFuzz, RandomBodiesNeverCrashTheDecoder) {
  util::Rng rng(0x5C4ED);
  int clean_throws = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    WireReader r(util::Buffer::backed(std::move(junk)));
    try {
      (void)ResourceRequest::decode_body(r);
    } catch (const WireError&) {
      ++clean_throws;
    }
  }
  EXPECT_GT(clean_throws, 0);
}

// ---------------------------------------------------------------------------
// No partial application: malformed or absurd acquires against a live
// machine leave its state bit-identical.
// ---------------------------------------------------------------------------

LeaseMachine test_machine() {
  return LeaseMachine({{1, "c1060", "gpu", 4_GiB}, {2, "c1060", "gpu", 4_GiB}},
                      QueuePolicy::kFcfs);
}

Command acquire_command(util::Buffer body, int reply_tag = 2'000'001) {
  Command cmd;
  cmd.client = 9;
  cmd.reply_tag = reply_tag;
  cmd.op = static_cast<std::uint32_t>(ArmOp::kAcquire);
  cmd.body = std::move(body);
  return cmd;
}

TEST(SchedWireFuzz, MalformedAcquireLeavesTheMachineUntouched) {
  LeaseMachine machine = test_machine();
  const std::uint64_t before = machine.fingerprint();
  const util::Buffer full = encode(sample_request());
  for (std::uint64_t cut = 0; cut < full.size(); ++cut) {
    const Command cmd = acquire_command(full.slice(0, cut));
    EXPECT_THROW((void)LeaseMachine::validate(cmd), WireError);
    EXPECT_THROW((void)machine.apply(cmd, /*now=*/1000), WireError);
  }
  EXPECT_EQ(machine.fingerprint(), before);
  // The machine still serves a well-formed request afterwards.
  const ApplyResult ok = machine.apply(
      acquire_command(encode(ResourceRequest{}.with_job(1)), 2'000'555),
      2000);
  ASSERT_EQ(ok.effects.size(), 1u);
  EXPECT_EQ(machine.stats().assigned, 1u);
}

TEST(SchedWireFuzz, SnapshotVersionOneRejected) {
  // A complete snapshot in the pre-scheduler version-1 layout (empty pool,
  // queue, revocation list and reply cache). Nothing produces that layout
  // any more, so restore() refuses it like any unknown version.
  const util::Buffer v1 = WireWriter{}
                              .u32(1)  // version
                              .u32(static_cast<std::uint32_t>(
                                  QueuePolicy::kFcfs))
                              .u64(1)  // next lease
                              .u64(0)  // acquisitions
                              .u64(0)  // heartbeats
                              .u32(0)  // revocations
                              .u32(0)  // replacements
                              .u32(0)  // slots
                              .u32(0)  // queue
                              .u32(0)  // revoked leases
                              .u32(0)  // reply cache
                              .finish();
  WireReader r(v1.view());
  EXPECT_THROW((void)LeaseMachine::restore(r), WireError);
}

TEST(SchedWireFuzz, CountOverflowAnswersOneBareStatus) {
  // An absurd count is a value, not a format error: the machine must answer
  // exactly one kInsufficient reply (even in waiting mode — it could never
  // be satisfied) and assign nothing.
  LeaseMachine machine = test_machine();
  const ApplyResult res = machine.apply(
      acquire_command(encode(ResourceRequest{}
                                 .with_job(1)
                                 .with_count(0xFFFFFFFFu)
                                 .with_wait(true))),
      1000);
  ASSERT_EQ(res.effects.size(), 1u);
  EXPECT_EQ(res.effects[0].kind, Effect::Kind::kReply);
  WireReader r(res.effects[0].frame.view());
  EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(ArmResult::kInsufficient));
  EXPECT_EQ(r.u32(), 0u);  // zero leases: nothing partially granted
  const PoolStats s = machine.stats();
  EXPECT_EQ(s.assigned, 0u);
  EXPECT_EQ(s.queued_requests, 0u);
  // Only the reply cache changed; the pool itself is untouched.
  EXPECT_EQ(machine.stats().free, 2u);
}

TEST(SchedWireFuzz, GarbageBodiesNeverPerturbTheMachine) {
  LeaseMachine machine = test_machine();
  const std::uint64_t before = machine.fingerprint();
  util::Rng rng(0xFEED5);
  int survived = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> junk(rng.next_below(48));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    Command cmd = acquire_command(util::Buffer::backed(std::move(junk)),
                                  2'000'100 + round);
    try {
      (void)machine.apply(cmd, 1000 + round);
    } catch (const WireError&) {
      ++survived;
    }
  }
  EXPECT_GT(survived, 0);
  // Every frame either applied cleanly or was dropped whole; the pool's
  // authoritative counters never tore.
  const PoolStats s = machine.stats();
  EXPECT_EQ(s.total, s.free + s.assigned + s.broken);
}

}  // namespace
}  // namespace dacc::arm
