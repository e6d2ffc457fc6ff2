#include "util/exec_context.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace csj {
namespace {

// ---------------------------------------------------------------- budgets --

TEST(MemoryBudgetTest, ReserveReleaseAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryReserve(600));
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_TRUE(budget.TryReserve(400));
  EXPECT_EQ(budget.used(), 1000u);
  EXPECT_EQ(budget.Available(), 0u);
  budget.Release(700);
  EXPECT_EQ(budget.used(), 300u);
  EXPECT_EQ(budget.peak(), 1000u);  // peak survives the release
}

TEST(MemoryBudgetTest, DenialChargesNothing) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(80));
  EXPECT_FALSE(budget.TryReserve(21));
  EXPECT_EQ(budget.used(), 80u);  // failed reservation left no residue
  EXPECT_EQ(budget.denials(), 1u);
  EXPECT_TRUE(budget.TryReserve(20));  // exact fit still accepted
}

TEST(MemoryBudgetTest, UnlimitedTracksPeak) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.TryReserve(1ull << 40));  // a terabyte — no limit
  EXPECT_EQ(budget.peak(), 1ull << 40);
  EXPECT_EQ(budget.Available(), UINT64_MAX);
  budget.Release(1ull << 40);
}

TEST(MemoryBudgetTest, ChildCarvesFromParent) {
  MemoryBudget parent(1000);
  MemoryBudget child(800, &parent);
  EXPECT_TRUE(child.TryReserve(500));
  EXPECT_EQ(child.used(), 500u);
  EXPECT_EQ(parent.used(), 500u);  // child reservations hit the parent too

  // Child has 300 headroom but the parent only 500 total: a sibling
  // consuming parent quota constrains the child.
  EXPECT_TRUE(parent.TryReserve(400));
  EXPECT_FALSE(child.TryReserve(200));  // parent would exceed 1000
  EXPECT_EQ(child.used(), 500u);        // denial rolled back everywhere
  EXPECT_EQ(parent.used(), 900u);

  child.Release(500);
  EXPECT_EQ(parent.used(), 400u);
}

TEST(MemoryBudgetTest, ConcurrentReserveNeverOvercommits) {
  MemoryBudget budget(10000);
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (budget.TryReserve(7)) {
          granted.fetch_add(7);
          budget.Release(7);
          granted.fetch_sub(7);
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_LE(budget.peak(), 10000u);
}

// ----------------------------------------------------------- ScopedCharge --

TEST(ScopedChargeTest, ReleasesOnDestruction) {
  MemoryBudget budget(100);
  {
    ScopedCharge charge;
    EXPECT_TRUE(charge.Acquire(&budget, 60));
    EXPECT_EQ(budget.used(), 60u);
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ScopedChargeTest, ResizeGrowAndShrink) {
  MemoryBudget budget(100);
  ScopedCharge charge;
  ASSERT_TRUE(charge.Acquire(&budget, 40));
  EXPECT_TRUE(charge.Resize(90));
  EXPECT_EQ(budget.used(), 90u);
  EXPECT_FALSE(charge.Resize(200));  // denied: original kept
  EXPECT_EQ(budget.used(), 90u);
  EXPECT_EQ(charge.bytes(), 90u);
  EXPECT_TRUE(charge.Resize(10));
  EXPECT_EQ(budget.used(), 10u);
}

TEST(ScopedChargeTest, NullBudgetAlwaysSucceeds) {
  ScopedCharge charge;
  EXPECT_TRUE(charge.Acquire(nullptr, 1ull << 50));
  EXPECT_TRUE(charge.Resize(1ull << 60));
}

TEST(ScopedChargeTest, MoveTransfersOwnership) {
  MemoryBudget budget(100);
  ScopedCharge a;
  ASSERT_TRUE(a.Acquire(&budget, 50));
  ScopedCharge b = std::move(a);
  EXPECT_EQ(budget.used(), 50u);
  a.Release();  // moved-from: no-op
  EXPECT_EQ(budget.used(), 50u);
  b.Release();
  EXPECT_EQ(budget.used(), 0u);
}

// ------------------------------------------------------------ ExecContext --

TEST(ExecContextTest, FreshContextDoesNotStop) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().ok());
}

TEST(ExecContextTest, ZeroDeadlineMeansNone) {
  ExecContext ctx;
  ctx.SetDeadlineAfterMs(0);
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.ShouldStopNow());
}

TEST(ExecContextTest, ExpiredDeadlineTrips) {
  ExecContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.ShouldStop());  // first poll always checks the clock
  EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, ShouldStopNowBypassesStride) {
  // Burn the stride with an unexpired deadline, then expire it: the strided
  // poll may miss it, but ShouldStopNow must not.
  ExecContext ctx;
  ctx.SetDeadlineAfterMs(3600 * 1000);
  for (uint32_t i = 0; i < ExecContext::kDeadlineStride + 1; ++i) {
    EXPECT_FALSE(ctx.ShouldStop());
  }
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.ShouldStopNow());
  EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, CancelFlagTrips) {
  std::atomic<bool> cancel{false};
  ExecContext ctx;
  ctx.SetCancelFlag(&cancel);
  EXPECT_FALSE(ctx.ShouldStop());
  cancel.store(true);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, TripIsStickyFirstErrorWins) {
  ExecContext ctx;
  ctx.Trip(Status::IoError("first"));
  ctx.Trip(Status::Cancelled("second"));
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.status().code(), StatusCode::kIoError);
  EXPECT_EQ(ctx.status().message(), "first");
}

TEST(ExecContextTest, OkTripIgnored) {
  ExecContext ctx;
  ctx.Trip(Status::OK());
  EXPECT_FALSE(ctx.ShouldStop());
}

TEST(ExecContextTest, ParentTripStopsChild) {
  ExecContext parent;
  ExecContext child;
  child.SetParent(&parent);
  EXPECT_FALSE(child.ShouldStop());
  parent.Trip(Status::Cancelled("parent stopped"));
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_EQ(child.status().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, ChildTripDoesNotStopParent) {
  ExecContext parent;
  ExecContext child;
  child.SetParent(&parent);
  child.Trip(Status::DeadlineExceeded("child only"));
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_FALSE(parent.ShouldStop());
}

TEST(ExecContextTest, BudgetFallsBackToParent) {
  MemoryBudget budget(100);
  ExecContext parent;
  parent.SetMemoryBudget(&budget);
  ExecContext child;
  child.SetParent(&parent);
  EXPECT_EQ(child.memory_budget(), &budget);
}

TEST(ExecContextTest, TryChargeTripsOnDenial) {
  MemoryBudget budget(100);
  ExecContext ctx;
  ctx.SetMemoryBudget(&budget);
  EXPECT_TRUE(ctx.TryCharge(80, "tile scratch"));
  EXPECT_FALSE(ctx.TryCharge(50, "group window"));
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  // The denied charge names the allocation site for the operator.
  EXPECT_NE(ctx.status().message().find("group window"), std::string::npos);
}

TEST(ExecContextTest, TryChargeWithoutBudgetIsFree) {
  ExecContext ctx;
  EXPECT_TRUE(ctx.TryCharge(1ull << 50, "anything"));
  EXPECT_FALSE(ctx.ShouldStop());
}

TEST(ExecContextTest, ConcurrentPollersSeeOneTrip) {
  std::atomic<bool> cancel{false};
  ExecContext ctx;
  ctx.SetCancelFlag(&cancel);
  std::atomic<int> stopped{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      while (!ctx.ShouldStop()) std::this_thread::yield();
      if (ctx.status().code() == StatusCode::kCancelled) stopped.fetch_add(1);
    });
  }
  cancel.store(true);
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(stopped.load(), 8);
}

}  // namespace
}  // namespace csj
