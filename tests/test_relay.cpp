// Session-relay middleware tests (§4): relaying with access control,
// floor control, sequence numbering, and hot/cold standby failover.
#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>

#include "helpers.hpp"
#include "relay/monitor.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"
#include "relay/standby.hpp"
#include "workload/topo_gen.hpp"

namespace express::test {
namespace {

using relay::Participant;
using relay::ParticipantConfig;
using relay::RelayConfig;
using relay::SessionDelivery;
using relay::SessionRelay;
using relay::StandbyCluster;
using relay::StandbyMode;
using workload::make_star;

using Log = std::vector<SessionDelivery>;

/// Record every frame `p` delivers into `log` (participants keep none).
void record(Participant& p, Log& log) {
  p.set_delivery_handler(
      [&log](const SessionDelivery& d) { log.push_back(d); });
}

class RelayTest : public ::testing::Test {
 protected:
  RelayTest() : sim_(make_star(4, 1)), sr_(sim_.source(), RelayConfig{}) {
    for (std::size_t i = 0; i < 3; ++i) {
      participants_.push_back(std::make_unique<Participant>(
          sim_.receiver(i), sr_.channel(), sim_.source().address()));
      record(*participants_.back(), logs_.emplace_back());
    }
  }

  void join_all() {
    for (auto& p : participants_) p->join();
    sim_.run_for(sim::seconds(1));
  }

  ExpressNetwork sim_;
  SessionRelay sr_;
  std::vector<std::unique_ptr<Participant>> participants_;
  std::deque<Log> logs_;  ///< logs_[i] records participants_[i]
};

TEST_F(RelayTest, PrimarySourceReachesAllParticipants) {
  join_all();
  sr_.start();
  sr_.send_as_primary(1000);
  sim_.run_for(sim::seconds(1));
  for (const Log& log : logs_) {
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].speaker, sim_.source().address());
    EXPECT_EQ(log[0].bytes, 1000u);
  }
}

TEST_F(RelayTest, UnauthorizedSenderIsDropped) {
  join_all();
  sr_.start();
  participants_[0]->speak(500);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sr_.stats().dropped_unauthorized, 1u);
  for (const Log& log : logs_) EXPECT_TRUE(log.empty());
}

TEST_F(RelayTest, AuthorizedSenderIsRelayedToEveryone) {
  join_all();
  sr_.start();
  sr_.authorize(sim_.receiver(0).address());
  participants_[0]->speak(500);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sr_.stats().frames_relayed, 1u);
  for (const Log& log : logs_) {
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].speaker, sim_.receiver(0).address());
  }
}

TEST_F(RelayTest, RelaySequenceNumbersAreContiguous) {
  join_all();
  sr_.start();
  sr_.authorize(sim_.receiver(0).address());
  sr_.authorize(sim_.receiver(1).address());
  for (int i = 0; i < 5; ++i) {
    participants_[static_cast<std::size_t>(i % 2)]->speak(100);
    sim_.run_for(sim::milliseconds(100));
  }
  sim_.run_for(sim::seconds(1));
  ASSERT_EQ(logs_[2].size(), 5u);
  EXPECT_TRUE(participants_[2]->missing_seqs().empty());
  // SR-assigned sequence numbers increase monotonically.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(logs_[2][i].relay_seq, logs_[2][i - 1].relay_seq);
  }
}

TEST_F(RelayTest, DeliveryHandlerHasOneOwner) {
  Log second;
  EXPECT_THROW(record(*participants_[0], second), std::logic_error);
  join_all();
  sr_.start();
  sr_.send_as_primary(100);
  sim_.run_for(sim::seconds(1));
  // The first install still owns the slot.
  EXPECT_EQ(logs_[0].size(), 1u);
  EXPECT_TRUE(second.empty());
}

TEST(RelayFloor, OneSpeakerAtATime) {
  ExpressNetwork sim(make_star(4, 1));
  RelayConfig config;
  config.floor_control = true;
  SessionRelay sr(sim.source(), config);
  std::vector<std::unique_ptr<Participant>> participants;
  for (std::size_t i = 0; i < 3; ++i) {
    participants.push_back(std::make_unique<Participant>(
        sim.receiver(i), sr.channel(), sim.source().address()));
    sr.authorize(sim.receiver(i).address());
    participants[i]->join();
  }
  Log listener;
  record(*participants[2], listener);
  sim.run_for(sim::seconds(1));
  sr.start();

  // Two participants want the floor; grants are serialized FIFO.
  participants[0]->request_floor();
  sim.run_for(sim::milliseconds(100));
  participants[1]->request_floor();
  sim.run_for(sim::milliseconds(100));
  EXPECT_EQ(sr.floor_holder(), sim.receiver(0).address());
  EXPECT_TRUE(participants[0]->has_floor());
  EXPECT_FALSE(participants[1]->has_floor());

  // Only the holder's data is relayed.
  participants[1]->speak(100);
  participants[0]->speak(100);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sr.stats().dropped_no_floor, 1u);
  ASSERT_EQ(listener.size(), 1u);
  EXPECT_EQ(listener[0].speaker, sim.receiver(0).address());

  // Release: the queued requester gets the floor ("the answer
  // immediately follows the question").
  participants[0]->release_floor();
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sr.floor_holder(), sim.receiver(1).address());
  EXPECT_TRUE(participants[1]->has_floor());
}

TEST(RelayFloor, ExcessiveQuestionsAreDenied) {
  ExpressNetwork sim(make_star(2, 1));
  RelayConfig config;
  config.floor_control = true;
  config.max_floor_grants_per_member = 2;
  SessionRelay sr(sim.source(), config);
  Participant p(sim.receiver(0), sr.channel(), sim.source().address());
  sr.authorize(sim.receiver(0).address());
  p.join();
  sim.run_for(sim::seconds(1));
  sr.start();

  for (int round = 0; round < 3; ++round) {
    p.request_floor();
    sim.run_for(sim::milliseconds(200));
    p.release_floor();
    sim.run_for(sim::milliseconds(200));
  }
  EXPECT_EQ(sr.stats().floor_grants, 2u);
  EXPECT_EQ(sr.stats().floor_denials, 1u);
}

TEST_F(RelayTest, RevokedSenderIsDroppedAgain) {
  join_all();
  sr_.start();
  sr_.authorize(sim_.receiver(0).address());
  participants_[0]->speak(100);
  sim_.run_for(sim::seconds(1));
  ASSERT_EQ(sr_.stats().frames_relayed, 1u);
  sr_.revoke(sim_.receiver(0).address());
  participants_[0]->speak(100);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sr_.stats().frames_relayed, 1u);
  EXPECT_EQ(sr_.stats().dropped_unauthorized, 1u);
}

TEST_F(RelayTest, InactiveRelayDropsEverything) {
  join_all();
  sr_.authorize(sim_.receiver(0).address());
  // start() was never called: nothing is relayed, no heartbeats flow.
  participants_[0]->speak(100);
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(sr_.stats().frames_relayed, 0u);
  EXPECT_EQ(sr_.stats().heartbeats_sent, 0u);
  for (const Log& log : logs_) EXPECT_TRUE(log.empty());
}

TEST_F(RelayTest, OpenAccessModeRelaysAnyone) {
  ExpressNetwork sim(make_star(3, 1));
  RelayConfig config;
  config.access_control = false;  // e.g. an open jam session
  SessionRelay sr(sim.source(), config);
  Participant speaker(sim.receiver(0), sr.channel(), sim.source().address());
  Participant listener(sim.receiver(1), sr.channel(), sim.source().address());
  Log heard;
  record(listener, heard);
  speaker.join();
  listener.join();
  sim.run_for(sim::seconds(1));
  sr.start();
  speaker.speak(100);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(sr.stats().frames_relayed, 1u);
  EXPECT_EQ(heard.size(), 1u);
}

TEST_F(RelayTest, DirectChannelSwitchover) {
  // §4.1: a secondary sender that will transmit for a long time creates
  // its own channel; the SR announces it; everyone auto-subscribes and
  // then receives the sender's traffic directly (no relay hop).
  join_all();
  sr_.start();
  sr_.authorize(sim_.receiver(0).address());
  const ip::ChannelId direct = participants_[0]->create_direct_channel();
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sr_.stats().channels_announced, 1u);
  for (std::size_t i = 1; i < participants_.size(); ++i) {
    ASSERT_EQ(participants_[i]->announced_channels().size(), 1u) << i;
    EXPECT_EQ(participants_[i]->announced_channels()[0], direct);
    EXPECT_TRUE(sim_.receiver(i).subscribed(direct)) << i;
  }

  const auto relayed_before = sr_.stats().frames_relayed;
  participants_[0]->send_direct(900);
  sim_.run_for(sim::seconds(1));
  for (std::size_t i = 1; i < participants_.size(); ++i) {
    ASSERT_FALSE(logs_[i].empty()) << i;
    const auto& d = logs_[i].back();
    EXPECT_EQ(d.speaker, sim_.receiver(0).address());
    EXPECT_EQ(d.bytes, 900u);
  }
  // The SR never touched the data.
  EXPECT_EQ(sr_.stats().frames_relayed, relayed_before);
}

TEST_F(RelayTest, UnauthorizedChannelAnnounceIsIgnored) {
  join_all();
  sr_.start();
  // receiver(0) is NOT authorized: its announce request is dropped.
  participants_[0]->create_direct_channel();
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(sr_.stats().channels_announced, 0u);
  for (std::size_t i = 1; i < participants_.size(); ++i) {
    EXPECT_TRUE(participants_[i]->announced_channels().empty());
  }
}

TEST_F(RelayTest, SessionMonitorCollectsSizeAndLosses) {
  // §4.5: group size + loss totals via CountQuery instead of RTCP.
  join_all();
  sr_.start();
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    relay::enable_loss_reports(*participants_[i], sim_.receiver(i));
  }
  sim_.run_for(sim::seconds(1));
  for (int i = 0; i < 4; ++i) {
    sr_.send_as_primary(200);
    sim_.run_for(sim::milliseconds(200));
  }

  relay::SessionMonitor monitor(sim_.source(), sr_.channel());
  std::optional<relay::SessionMonitor::Sample> sample;
  monitor.poll(sim::seconds(3),
               [&](relay::SessionMonitor::Sample s) { sample = s; });
  sim_.run_for(sim::seconds(8));
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->group_size, 3);
  EXPECT_EQ(sample->total_losses, 0);  // simulator links lose nothing

  // Periodic sampling accumulates.
  monitor.start_periodic(sim::seconds(5), sim::seconds(2));
  sim_.run_for(sim::seconds(16));
  monitor.stop();
  EXPECT_GE(monitor.samples().size(), 3u);
  for (const auto& s : monitor.samples()) {
    EXPECT_EQ(s.group_size, 3);
  }
}

class StandbyTest : public ::testing::TestWithParam<StandbyMode> {};

TEST_P(StandbyTest, FailoverDeliversViaBackup) {
  // receivers 0-1: participants; receiver 2: unused; receiver 3: backup
  // SR host. Heartbeats every 1 s; failover after ~3.5 s of silence.
  ExpressNetwork sim(make_star(4, 1));
  SessionRelay primary(sim.source(), RelayConfig{});
  SessionRelay backup(sim.receiver(3), RelayConfig{});
  StandbyCluster cluster(primary, backup, sim.receiver(3));

  ParticipantConfig pconfig;
  pconfig.standby = GetParam();
  std::vector<std::unique_ptr<Participant>> participants;
  std::deque<Log> logs;
  for (std::size_t i = 0; i < 2; ++i) {
    participants.push_back(std::make_unique<Participant>(
        sim.receiver(i), primary.channel(), sim.source().address(),
        backup.channel(), sim.receiver(3).address(), pconfig));
    record(*participants[i], logs.emplace_back());
    participants[i]->join();
  }
  cluster.start();
  primary.start();
  sim.run_for(sim::seconds(5));
  EXPECT_FALSE(cluster.backup_active());
  for (auto& p : participants) EXPECT_FALSE(p->failed_over());

  // Primary dies at t = 5 s.
  primary.stop();
  sim.run_for(sim::seconds(6));
  EXPECT_TRUE(cluster.backup_active());
  for (auto& p : participants) {
    EXPECT_TRUE(p->failed_over());
    // Detection took roughly failover_after_missed heartbeats.
    ASSERT_TRUE(p->failover_at().has_value());
    EXPECT_LT(*p->failover_at(), sim::seconds(10));
  }

  // The promoted backup sources the session now.
  backup.send_as_primary(700);
  sim.run_for(sim::seconds(2));
  for (const Log& log : logs) {
    ASSERT_FALSE(log.empty());
    const auto& last = log.back();
    EXPECT_TRUE(last.via_backup);
    EXPECT_EQ(last.bytes, 700u);
  }
}

INSTANTIATE_TEST_SUITE_P(HotAndCold, StandbyTest,
                         ::testing::Values(StandbyMode::kHot,
                                           StandbyMode::kCold),
                         [](const auto& info) {
                           return info.param == StandbyMode::kHot ? "Hot"
                                                                  : "Cold";
                         });

TEST(StandbyCost, HotStandbyDoublesChannelState) {
  // §4.5: "the use of a hot standby SR/channel adds additional state
  // (approximately twice as much)".
  auto measure = [](StandbyMode mode) {
    ExpressNetwork sim(make_star(4, 1));
    SessionRelay primary(sim.source(), RelayConfig{});
    SessionRelay backup(sim.receiver(3), RelayConfig{});
    ParticipantConfig pconfig;
    pconfig.standby = mode;
    std::vector<std::unique_ptr<Participant>> participants;
    for (std::size_t i = 0; i < 3; ++i) {
      participants.push_back(std::make_unique<Participant>(
          sim.receiver(i), primary.channel(), sim.source().address(),
          backup.channel(), sim.receiver(3).address(), pconfig));
      participants[i]->join();
    }
    primary.start();
    sim.run_for(sim::seconds(2));
    return sim.total_fib_entries();
  };
  const std::size_t hot = measure(StandbyMode::kHot);
  const std::size_t cold = measure(StandbyMode::kCold);
  EXPECT_GT(hot, cold);
  EXPECT_LE(hot, cold * 3);  // "approximately twice"
}

}  // namespace
}  // namespace express::test
