#pragma once

#include "src/core/journal.h"

namespace ckptsim::svc {

/// The daemon's result cache is the sweep journal.  This name remains
/// because perfbench/src/replay.cc still spells it.
using ResultCache = SweepJournal;

}  // namespace ckptsim::svc
