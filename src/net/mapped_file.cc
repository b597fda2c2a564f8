#include "net/mapped_file.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define ZPM_HAVE_MMAP 1
#endif

namespace zpm::net {

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), valid_(other.valid_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.valid_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, std::size_t{0});
    valid_ = std::exchange(other.valid_, false);
  }
  return *this;
}

void MappedFile::reset() {
#ifdef ZPM_HAVE_MMAP
  if (valid_ && data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
}

MappedFile MappedFile::open(const std::string& path, ReadPattern pattern) {
  MappedFile mf;
#ifdef ZPM_HAVE_MMAP
  // Only regular files are opened here. Any open of a FIFO for reading,
  // even a non-blocking one, completes a writer already waiting in its
  // own open(); closing it again (a FIFO cannot be mapped) would leave
  // that writer facing a reader-less pipe (SIGPIPE) before the
  // streaming fallback reopens it. O_NONBLOCK still covers a path that
  // turns into a FIFO between the stat and the open.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return mf;
  int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (fd < 0) return mf;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return mf;
  }
  if (st.st_size == 0) {
    // Zero-byte files cannot be mmap'd but are a valid (empty) mapping.
    ::close(fd);
    mf.valid_ = true;
    return mf;
  }
  const bool sweep = pattern == ReadPattern::Sweep;
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  // Prefault the page tables in one kernel sweep instead of taking a
  // demand fault every few records during the parse. A sweep reads the
  // whole file anyway, so this moves cost, it doesn't add any; a sparse
  // reader would pay for every page it never touches.
  if (sweep) flags |= MAP_POPULATE;
#endif
  void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      flags, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) return mf;
#ifdef MADV_SEQUENTIAL
  // Trace analysis is one sequential sweep: tell the kernel to read
  // ahead aggressively and drop pages behind us. Sparse mappings get no
  // advice: MADV_RANDOM would also switch off fault-around, which is
  // what keeps a record spanning several pages to one fault.
  if (sweep)
    ::madvise(addr, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
  mf.data_ = static_cast<const std::uint8_t*>(addr);
  mf.size_ = static_cast<std::size_t>(st.st_size);
  mf.valid_ = true;
#else
  (void)path;
  (void)pattern;
#endif
  return mf;
}

}  // namespace zpm::net
