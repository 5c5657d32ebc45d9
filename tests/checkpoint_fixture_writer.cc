// Writes the checkpoint fixture chain (tests/checkpoint_fixture.h) into a new
// directory and prints its Describe() text.
//
//   checkpoint_fixture_writer <dir> > <dir>.expected
//
// tests/data/ckpt_v1 and tests/data/ckpt_v1.expected were produced this way
// by a build whose index checkpoint meta was version 1.
#include <cstdio>

#include "storage/file.h"
#include "tests/checkpoint_fixture.h"

int main(int argc, char** argv) {
  using namespace sebdb;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::string description;
  Status s = CreateDirIfMissing(dir);
  if (s.ok()) s = checkpoint_fixture::WriteChain(dir, &description);
  if (!s.ok()) {
    std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fputs(description.c_str(), stdout);
  return 0;
}
