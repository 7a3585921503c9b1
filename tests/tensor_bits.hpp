// Bitwise tensor comparison shared by the test suites. "Bit-exact" means
// the same extents and the same bit pattern in every float: a float
// compare would equate -0.0 with +0.0 and could never match a NaN.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "cnn/conv_exec.hpp"

namespace de {

inline void expect_bitexact(const cnn::Tensor& got, const cnn::Tensor& want,
                            const std::string& what = "") {
  ASSERT_EQ(got.h, want.h) << what;
  ASSERT_EQ(got.w, want.w) << what;
  ASSERT_EQ(got.c, want.c) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data[i]),
              std::bit_cast<std::uint32_t>(want.data[i]))
        << what << " — flat index " << i << " of " << want.size() << ": got "
        << got.data[i] << ", want " << want.data[i];
  }
}

}  // namespace de
