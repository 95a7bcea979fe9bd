// Distance learning — the paper's flagship "almost single-source"
// application (§4).
//
// A lecturer multicasts over the session-relay channel (SR, E); any
// student may ask a question by requesting the floor. The SR acts as an
// "intelligent audience microphone": it serializes speakers, enforces a
// per-student question budget, stamps relay sequence numbers, and — when
// the primary SR host dies mid-lecture — a hot-standby SR takes over
// without the students doing anything.
//
// Build & run:  ./build/examples/distance_learning
#include <cstdio>
#include <memory>
#include <vector>

#include "testbed/testbed.hpp"
#include "relay/participant.hpp"
#include "relay/session_relay.hpp"
#include "relay/standby.hpp"

int main() {
  using namespace express;
  using namespace express::relay;

  Testbed bed(workload::make_kary_tree(2, 3));  // 8 hosts
  // Host 7 runs the hot-standby SR; hosts 0..5 are students.
  constexpr std::size_t kStudents = 6;
  constexpr std::size_t kBackupHost = 7;

  RelayConfig config;
  config.floor_control = true;
  config.max_floor_grants_per_member = 2;  // two questions per student
  SessionRelay lecture(bed.source(), config);
  SessionRelay backup(bed.receiver(kBackupHost), config);
  StandbyCluster cluster(lecture, backup, bed.receiver(kBackupHost));

  ParticipantConfig pconfig;
  pconfig.standby = StandbyMode::kHot;  // pre-subscribed backup channel
  std::vector<std::unique_ptr<Participant>> students;
  // What each student has heard: frames delivered, and whether the
  // latest one came over the backup channel.
  struct Heard {
    std::size_t frames = 0;
    bool last_via_backup = false;
  };
  std::vector<Heard> heard(kStudents);
  for (std::size_t i = 0; i < kStudents; ++i) {
    students.push_back(std::make_unique<Participant>(
        bed.receiver(i), lecture.channel(), bed.source().address(),
        backup.channel(), bed.receiver(kBackupHost).address(), pconfig));
    students.back()->set_delivery_handler(
        [&heard, i](const SessionDelivery& d) {
          ++heard[i].frames;
          heard[i].last_via_backup = d.via_backup;
        });
    lecture.authorize(bed.receiver(i).address());
    backup.authorize(bed.receiver(i).address());
    students.back()->join();
  }
  bed.run_for(sim::seconds(1));
  cluster.start();
  lecture.start();

  // --- the lecture ------------------------------------------------------
  std::printf("lecture channel %s, backup %s\n",
              lecture.channel().to_string().c_str(),
              backup.channel().to_string().c_str());
  for (int slide = 1; slide <= 3; ++slide) {
    lecture.send_as_primary(30'000);  // a slide's worth of video
    bed.run_for(sim::seconds(2));
  }

  // --- questions --------------------------------------------------------
  // Students 0 and 1 both raise their hands; the floor serializes them.
  students[0]->request_floor();
  students[1]->request_floor();
  bed.run_for(sim::milliseconds(200));
  std::printf("floor: %s\n",
              lecture.floor_holder()
                  ? lecture.floor_holder()->to_string().c_str()
                  : "(none)");
  students[0]->speak(2'000);  // the question
  bed.run_for(sim::milliseconds(200));
  students[0]->release_floor();
  bed.run_for(sim::milliseconds(200));
  std::printf("floor passed to: %s\n",
              lecture.floor_holder()
                  ? lecture.floor_holder()->to_string().c_str()
                  : "(none)");
  students[1]->speak(2'000);
  students[1]->release_floor();
  bed.run_for(sim::seconds(1));

  // Student 2 tries to heckle without the floor — dropped at the SR.
  students[2]->speak(9'000);
  bed.run_for(sim::seconds(1));
  std::printf("frames relayed: %llu, dropped (no floor): %llu\n",
              static_cast<unsigned long long>(lecture.stats().frames_relayed),
              static_cast<unsigned long long>(lecture.stats().dropped_no_floor));

  // --- the SR host crashes mid-lecture -----------------------------------
  std::printf("primary SR fails at t=%.1fs...\n",
              sim::to_seconds(bed.net().now()));
  lecture.stop();
  bed.run_for(sim::seconds(6));
  std::printf("backup promoted: %s; students failed over: ",
              cluster.backup_active() ? "yes" : "no");
  for (const auto& s : students) std::printf("%d", s->failed_over() ? 1 : 0);
  std::printf("\n");

  backup.send_as_primary(30'000);  // the lecture continues
  bed.run_for(sim::seconds(2));
  std::size_t got_continuation = 0;
  for (const Heard& h : heard) {
    if (h.last_via_backup) ++got_continuation;
  }
  std::printf("students receiving via backup: %zu / %zu\n", got_continuation,
              students.size());

  // Per-student delivery log with SR sequence numbers (reliable relaying
  // hook, §4.2): any gap would be visible here.
  const auto missing = students[0]->missing_seqs();
  std::printf("student 0: %zu frames, %zu sequence gaps\n",
              heard[0].frames, missing.size());
  return 0;
}
