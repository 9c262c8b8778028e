#include "mach/tlb.h"

#include <bit>

#include "mach/address_space.h"

namespace wrl {

std::optional<unsigned> Tlb::Lookup(uint32_t vaddr, uint8_t asid) const {
  uint32_t vpn = vaddr >> 12;
  // Walking the bucket's mask from its lowest bit visits candidates in slot
  // order, so the first match is the scan's.
  for (uint64_t mask = buckets_[Bucket(vpn)]; mask != 0; mask &= mask - 1) {
    unsigned i = static_cast<unsigned>(std::countr_zero(mask));
    const TlbEntry& e = entries_[i];
    if (e.vpn() == vpn && (e.global() || e.asid() == asid)) {
      return i;
    }
  }
  return std::nullopt;
}

void Tlb::Set(unsigned index, const TlbEntry& entry) {
  const uint64_t bit = uint64_t{1} << index;
  buckets_[Bucket(entries_[index].vpn())] &= ~bit;
  entries_[index] = entry;
  buckets_[Bucket(entry.vpn())] |= bit;
}

void Tlb::Reset() {
  // Park every entry on a distinct kseg0 VPN: kseg0 is unmapped, so these
  // can never match a translation.  (Real R3000 kernels flush the TLB the
  // same way — a freshly zeroed TLB would spuriously match VPN 0.)  tlbp can
  // still probe them, so they are indexed like any other entry.
  buckets_.fill(0);
  for (unsigned i = 0; i < kEntries; ++i) {
    entries_[i].entry_hi = MakeEntryHi(kKseg0 + i * kPageBytes, 0);
    entries_[i].entry_lo = 0;
    buckets_[Bucket(entries_[i].vpn())] |= uint64_t{1} << i;
  }
}

}  // namespace wrl
