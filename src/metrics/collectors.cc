#include "metrics/collectors.h"

#include "util/check.h"

namespace omcast::metrics {

using overlay::Member;
using overlay::NodeId;
using overlay::Session;

MemberOutcomes::MemberOutcomes(Session& session) : session_(session) {
  session_.hooks().AddOnMemberDeparted([this](const Member& m) {
    const double now = session_.simulator().now();
    if (now < begin_ || now > end_) return;
    if (m.join_time < 0.0) return;  // pre-populated member
    disruptions_.Add(static_cast<double>(m.disruptions));
    reconnections_.Add(static_cast<double>(m.reconnections));
    disruption_samples_.push_back(static_cast<double>(m.disruptions));
  });
}

void MemberOutcomes::SetWindow(double begin_s, double end_s) {
  util::Check(begin_s < end_s, "empty measurement window");
  begin_ = begin_s;
  end_ = end_s;
}

void MemberOutcomes::HarvestAliveMembers() {
  for (overlay::NodeId id : session_.alive_members()) {
    const overlay::Member& m = session_.tree().Get(id);
    if (m.join_time < 0.0) continue;  // pre-populated member
    disruptions_.Add(static_cast<double>(m.disruptions));
    reconnections_.Add(static_cast<double>(m.reconnections));
    disruption_samples_.push_back(static_cast<double>(m.disruptions));
  }
}

TreeSnapshots::TreeSnapshots(Session& session, double interval_s)
    : session_(session), interval_s_(interval_s) {
  util::Check(interval_s > 0.0, "snapshot interval must be positive");
}

void TreeSnapshots::Start(double begin_s, double end_s) {
  util::Check(begin_s <= end_s, "snapshot window inverted");
  session_.simulator().ScheduleAt(begin_s, [this, end_s] { Snap(end_s); });
}

void TreeSnapshots::Snap(double end_s) {
  const overlay::Tree& tree = session_.tree();
  double max_layer = 0.0;
  int counted = 0;
  for (NodeId id : session_.alive_members()) {
    if (!tree.IsRooted(id)) continue;
    delay_ms_.Add(session_.OverlayDelayMs(id));
    stretch_.Add(session_.Stretch(id));
    if (tree.Layer(id) > max_layer) max_layer = tree.Layer(id);
    ++counted;
  }
  depth_.Add(max_layer);
  population_.Add(static_cast<double>(counted));
  ++snaps_;
  const double next = session_.simulator().now() + interval_s_;
  if (next <= end_s)
    session_.simulator().ScheduleAt(next, [this, end_s] { Snap(end_s); });
}

MemberTrace::MemberTrace(Session& session, double sample_interval_s)
    : session_(session), sample_interval_s_(sample_interval_s) {
  util::Check(sample_interval_s > 0.0, "sample interval must be positive");
  session_.hooks().AddOnDisruption([this](NodeId affected, NodeId) {
    if (affected != tracked_) return;
    ++count_;
    disruptions_.push_back(
        {session_.simulator().now(), static_cast<double>(count_)});
  });
}

void MemberTrace::Track(NodeId id) {
  util::Check(tracked_ == overlay::kNoNode, "trace already bound");
  tracked_ = id;
  SampleDelay();
}

void MemberTrace::SampleDelay() {
  const overlay::Tree& tree = session_.tree();
  if (!tree.Alive(tracked_)) return;  // member departed; stop sampling
  if (tree.IsRooted(tracked_))
    delays_.push_back(
        {session_.simulator().now(), session_.OverlayDelayMs(tracked_)});
  session_.simulator().ScheduleAfter(sample_interval_s_,
                                     [this] { SampleDelay(); });
}

}  // namespace omcast::metrics
