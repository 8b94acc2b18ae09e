// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Raw bit error rate (RBER) model and deterministic bit-error injection.
//
// The model combines the three error mechanisms the paper leans on (§2.1,
// §4.2-4.3):
//
//   RBER(pec, t, r) = base * (1 + alpha * (pec / endurance)^k)   [wear]
//                          * (1 + beta * (t_years)^m)            [retention]
//                   + disturb * r                                 [read disturb]
//
// where `pec` is the block's program/erase cycle count at program time,
// `t_years` is the time the data has rested since being programmed, and `r`
// is the number of reads the page has absorbed since program. Coefficients
// live in CellTechInfo per technology/mode.
//
// Determinism: error injection derives its random stream from
// (device_seed, block, page, pec, read_count), so re-running a simulation or
// re-reading the same page state produces identical corrupted bytes.

#ifndef SOS_SRC_FLASH_ERROR_MODEL_H_
#define SOS_SRC_FLASH_ERROR_MODEL_H_

#include <cstdint>
#include <span>

#include "src/flash/cell_tech.h"

namespace sos {

// Wear/retention/disturb inputs for one page read.
struct PageErrorState {
  CellTech mode = CellTech::kTlc;     // programming mode of the block
  double endurance_pec = 3000.0;      // effective endurance (incl. pseudo bonus)
  uint32_t pec_at_program = 0;        // block P/E count when page was written
  double retention_years = 0.0;       // time since program
  uint32_t reads_since_program = 0;   // accumulated read disturb
};

class ErrorModel {
 public:
  // Raw bit error rate for a page in the given state; clamped to [0, 0.5].
  // Equal, bit for bit, to RberFromWear(state, WearProduct(state.mode,
  // state.endurance_pec, state.pec_at_program)).
  static double Rber(const PageErrorState& state);

  // base * wear_term: the first product Rber forms. It depends only on
  // (mode, endurance, pec), so RberCache memoizes it per pec.
  static double WearProduct(CellTech mode, double endurance_pec, uint32_t pec_at_program);

  // The rest of Rber: wear_product * retention_term + disturb, clamped.
  static double RberFromWear(const PageErrorState& state, double wear_product);

  // Expected number of bit errors in a payload of `bits` bits.
  static double ExpectedErrors(const PageErrorState& state, uint64_t bits);

  // Samples the number of bit errors for a payload of `bits` bits using a
  // stream derived from `stream_seed`; deterministic for equal inputs.
  static uint64_t SampleErrorCount(const PageErrorState& state, uint64_t bits,
                                   uint64_t stream_seed);

  // Flips `error_count` distinct bits of `data` in place, positions drawn
  // from the `stream_seed` stream. Returns the number of bits flipped
  // (== error_count unless the payload has fewer bits).
  static uint64_t InjectErrors(std::span<uint8_t> data, uint64_t error_count,
                               uint64_t stream_seed);
};

}  // namespace sos

#endif  // SOS_SRC_FLASH_ERROR_MODEL_H_
