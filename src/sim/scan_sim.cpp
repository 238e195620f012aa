#include "sim/scan_sim.h"

namespace fstg {

// The 64-lane instantiation every caller links against.
template class ScanBatchSimT<Word>;

}  // namespace fstg
