#include "sim/logic_sim.h"

namespace fstg {

// The 64-lane instantiation every caller links against.
template class LogicSimT<Word>;

}  // namespace fstg
