#include "common/page_buffer.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace esl {
namespace {

constexpr std::size_t k_mapped_size =
    PageBuffer::k_min_mapped_bytes / sizeof(Real);

/// Pages of `buffer`'s mapping the kernel reports resident.
std::size_t resident_pages(const PageBuffer& buffer) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t bytes = buffer.size() * sizeof(Real);
  std::vector<unsigned char> residency((bytes + page - 1) / page);
  // The mapping starts on a page boundary, so mincore takes its address.
  void* start = const_cast<Real*>(buffer.data());
  EXPECT_EQ(mincore(start, bytes, residency.data()), 0);
  std::size_t resident = 0;
  for (const unsigned char r : residency) {
    resident += r & 1u;
  }
  return resident;
}

TEST(PageBuffer, SmallBufferIsAHeapBlockAllocatedUpFront) {
  PageBuffer buffer(16);
  EXPECT_FALSE(buffer.mapped());
  EXPECT_EQ(buffer.size(), 16u);
  ASSERT_NE(std::as_const(buffer).data(), nullptr);
  buffer.data()[15] = 2.5;
  EXPECT_EQ(std::as_const(buffer).data()[15], 2.5);
}

TEST(PageBuffer, EmptyBufferHoldsNothing) {
  PageBuffer buffer;
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.mapped());
  EXPECT_EQ(buffer.data(), nullptr);
}

TEST(PageBuffer, LargeBufferMapsOnFirstUseAndReadsZero) {
  PageBuffer buffer(k_mapped_size);
  EXPECT_TRUE(buffer.mapped());
  EXPECT_EQ(std::as_const(buffer).data(), nullptr);
  Real* data = buffer.data();
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(buffer.data(), data);  // mapped once
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(data) %
                static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE)),
            0u);
  EXPECT_EQ(data[0], 0.0);
  EXPECT_EQ(data[k_mapped_size - 1], 0.0);
  data[k_mapped_size - 1] = -1.0;
  EXPECT_EQ(std::as_const(buffer).data()[k_mapped_size - 1], -1.0);
}

TEST(PageBuffer, MappedBufferTakesPagesOnlyAsItIsWritten) {
  // 1 MiB: too small for a transparent huge page, so residency is per
  // 4 KiB page whatever the host's huge-page setting.
  const std::size_t size = (std::size_t{1} << 20) / sizeof(Real);
  PageBuffer buffer(size);
  Real* data = buffer.data();
  EXPECT_EQ(resident_pages(buffer), 0u);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t per_page = page / sizeof(Real);
  for (std::size_t i = 0; i < 4 * per_page; ++i) {
    data[i] = static_cast<Real>(i);
  }
  EXPECT_EQ(resident_pages(buffer), 4u);
}

TEST(PageBuffer, MoveTransfersTheStorage) {
  PageBuffer a(k_mapped_size);
  a.data()[7] = 3.0;
  const Real* storage = std::as_const(a).data();
  PageBuffer b(std::move(a));
  EXPECT_EQ(std::as_const(b).data(), storage);
  EXPECT_EQ(b.size(), k_mapped_size);
  EXPECT_EQ(std::as_const(b).data()[7], 3.0);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(std::as_const(a).data(), nullptr);

  PageBuffer c(8);
  c.data()[0] = 1.0;
  c = std::move(b);  // releases c's heap block, takes b's mapping
  EXPECT_TRUE(c.mapped());
  EXPECT_EQ(std::as_const(c).data()[7], 3.0);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(std::as_const(b).data(), nullptr);
}

}  // namespace
}  // namespace esl
