#pragma once

#include "src/report/cli.h"

namespace perfbench {

/// `client`: drive a running ckptsimd with a request list (see client.cc).
int cmd_client(const ckptsim::report::Cli& cli);

}  // namespace perfbench
