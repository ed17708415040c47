// Table 1: the submodel list of the composed SAN, printed from the actual
// model build (module, submodel, comment, and the places/activities each
// submodel contributes), followed by the full place/activity inventory.
#include <iostream>

#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/report/cli.h"
#include "src/report/table.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({{"--quick", false}}); rc != 0) return rc;
  Parameters p;
  // Enable every optional mechanism so the inventory is complete.
  p.timeout = 120.0;
  p.prob_correlated = 0.05;
  p.generic_correlated_coefficient = 0.0025;
  p.generic_correlated_smooth = false;  // include the phase alternation too
  const SanCheckpointModel model{p};

  std::cout << "=== Table 1: Submodel List (as built) ===\n\n";
  report::Table table({"module", "submodel", "places", "activities", "comment"});
  for (const auto& s : model.submodels()) {
    table.add_row({s.module, s.name, std::to_string(s.places.size()),
                   std::to_string(s.activities.size()), s.comment});
  }
  std::cout << table.render() << "\n";

  std::cout << "per-submodel detail:\n";
  for (const auto& s : model.submodels()) {
    std::cout << "  " << s.name << ":\n";
    if (!s.places.empty()) {
      std::cout << "    places:";
      for (const auto& name : s.places) std::cout << ' ' << name;
      std::cout << '\n';
    }
    if (!s.activities.empty()) {
      std::cout << "    activities:";
      for (const auto& name : s.activities) std::cout << ' ' << name;
      std::cout << '\n';
    }
  }

  std::cout << "\nfull SAN inventory:\n" << model.model().describe() << "\n";
  return 0;
}
