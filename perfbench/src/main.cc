// perfbench_driver: the compiled half of the end-to-end benchmark.  run.py
// generates the inputs, starts the daemon and computes the metrics; this
// binary does the work that has to call the library or time the wire.
//
//   perfbench_driver plan
//   perfbench_driver figures --root DIR --passes N --seed S --jobs J [--trace-dir D]
//   perfbench_driver client  --port P --conns C --requests F --out F [--points F]
//                            [--pings N] [--window W]
//   perfbench_driver replay  --requests F --out F [--jobs J | --cache F --trace-dir D]

#include <exception>
#include <iostream>
#include <string>

#include "client.h"
#include "figures.h"
#include "replay.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver plan|figures|client|replay [options]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const ckptsim::report::Cli cli(argc - 1, argv + 1);
  try {
    if (cmd == "plan") return perfbench::cmd_plan();
    if (cmd == "figures") return perfbench::cmd_figures(cli);
    if (cmd == "client") return perfbench::cmd_client(cli);
    if (cmd == "replay") return perfbench::cmd_replay(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_driver: unknown command '" << cmd << "'\n";
  return 2;
}
