//===- perfbench/src/TimedMailbox.h - Timing Mailbox wrapper ----*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Mailbox that forwards every call unchanged to a FileMailbox and
/// records how long each post and collect took, plus the inner mailbox's
/// MailboxStats. One island owns one TimedMailbox and calls it from its
/// own thread only, so the duration lists need no lock.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_PERFBENCH_TIMEDMAILBOX_H
#define CA2A_PERFBENCH_TIMEDMAILBOX_H

#include "Trace.h"

#include "dist/Mailbox.h"

#include <string>
#include <vector>

namespace perfbench {

class TimedMailbox : public ca2a::Mailbox {
public:
  TimedMailbox(std::string Dir, ca2a::RetryPolicy Retry)
      : Inner(std::move(Dir), Retry) {}

  [[nodiscard]] ca2a::Expected<bool>
  post(const ca2a::MigrantBlock &Block) override {
    Tracer::Scope S("dist", "Mailbox::post");
    double Start = nowSeconds();
    auto Result = Inner.post(Block);
    PostMs.push_back((nowSeconds() - Start) * 1e3);
    PostTotalMs += PostMs.back();
    Stats = Inner.stats();
    return Result;
  }

  [[nodiscard]] ca2a::Expected<ca2a::MigrantBlock>
  collect(int From, int To, uint64_t Seq, uint64_t ContextFingerprint,
          double DeadlineSeconds) override {
    Tracer::Scope S("dist", "Mailbox::collect");
    double Start = nowSeconds();
    auto Result =
        Inner.collect(From, To, Seq, ContextFingerprint, DeadlineSeconds);
    CollectMs.push_back((nowSeconds() - Start) * 1e3);
    CollectTotalMs += CollectMs.back();
    Stats = Inner.stats();
    return Result;
  }

  /// Milliseconds spent in post, and in collect, so far.
  double postMs() const { return PostTotalMs; }
  double collectMs() const { return CollectTotalMs; }

  std::vector<double> PostMs;
  std::vector<double> CollectMs;

private:
  ca2a::FileMailbox Inner;
  double PostTotalMs = 0.0;
  double CollectTotalMs = 0.0;
};

} // namespace perfbench

#endif // CA2A_PERFBENCH_TIMEDMAILBOX_H
