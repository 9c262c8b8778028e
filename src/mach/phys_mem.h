// A lazily zeroed byte buffer: the simulated machine's physical memory and
// the disk's image.
//
// Both are large (64–128 MB of RAM, a 16 MB disk) and mostly untouched by
// any one run, and a system is built afresh for every experiment.  A
// `std::vector<uint8_t>` value-initializes (memsets) every byte up front, so
// building a machine used to cost more than running a small workload on it.
// PhysMem instead maps anonymous memory with mmap: the kernel hands out
// zero pages on first touch, construction is O(1), and only the pages a run
// actually reads or writes are ever committed.  It does not use calloc,
// because glibc's dynamic mmap threshold can serve a request of this size
// from the heap and then zero-fill it by hand, faulting in every page.
#ifndef WRLTRACE_MACH_PHYS_MEM_H_
#define WRLTRACE_MACH_PHYS_MEM_H_

#include <sys/mman.h>

#include <cstdint>
#include <new>

namespace wrl {

class PhysMem {
 public:
  explicit PhysMem(size_t bytes) : size_(bytes) {
    void* p = mmap(nullptr, MappedBytes(), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    data_ = static_cast<uint8_t*>(p);
  }
  ~PhysMem() { munmap(data_, MappedBytes()); }

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint8_t& operator[](size_t i) { return data_[i]; }
  uint8_t operator[](size_t i) const { return data_[i]; }

 private:
  // mmap rejects a zero length.
  size_t MappedBytes() const { return size_ == 0 ? 1 : size_; }

  uint8_t* data_ = nullptr;
  size_t size_;
};

}  // namespace wrl

#endif  // WRLTRACE_MACH_PHYS_MEM_H_
