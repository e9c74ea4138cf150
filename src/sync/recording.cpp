#include "sync/recording.hpp"

#include <utility>

namespace amo::sync {

namespace {

class RecordingLock final : public Lock {
 public:
  explicit RecordingLock(std::unique_ptr<Lock> inner)
      : inner_(std::move(inner)) {}

  sim::Task<void> acquire(core::ThreadCtx& t) override {
    const sim::Cycle start = t.now();
    co_await inner_->acquire(t);
    if (core::SyncHists* h = t.sync_hists(); h != nullptr) {
      h->lock_acquire->record(t.now() - start);
    }
  }

  sim::Task<void> release(core::ThreadCtx& t) override {
    return inner_->release(t);
  }

 private:
  std::unique_ptr<Lock> inner_;
};

class RecordingBarrier final : public Barrier {
 public:
  explicit RecordingBarrier(std::unique_ptr<Barrier> inner)
      : inner_(std::move(inner)) {}

  sim::Task<void> wait(core::ThreadCtx& t) override {
    const sim::Cycle start = t.now();
    co_await inner_->wait(t);
    if (core::SyncHists* h = t.sync_hists(); h != nullptr) {
      h->barrier_episode->record(t.now() - start);
    }
  }

 private:
  std::unique_ptr<Barrier> inner_;
};

}  // namespace

std::unique_ptr<Lock> with_acquire_hist(core::Machine& m,
                                        std::unique_ptr<Lock> inner) {
  if (!m.registry().histograms()) return inner;
  return std::make_unique<RecordingLock>(std::move(inner));
}

std::unique_ptr<Barrier> with_episode_hist(core::Machine& m,
                                           std::unique_ptr<Barrier> inner) {
  if (!m.registry().histograms()) return inner;
  return std::make_unique<RecordingBarrier>(std::move(inner));
}

}  // namespace amo::sync
