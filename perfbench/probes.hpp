// Layer probes for the traced run: host nanoseconds per operation of one
// layer's public functions, timed in isolation from any workload.
#pragma once

namespace perfbench {

struct LayerProbes {
  double queue_op_ns = 0;      // sim: Engine schedule + dispatch
  double resume_ns = 0;        // sim: Task suspend/resume through Engine
  double send_ns = 0;          // net: Network::send on the 1024-CPU tree
  double word_op_ns = 0;       // coh: Directory word_get / word_put
  double cache_access_ns = 0;  // mem: Cache hit and fill/evict
  double amu_op_ns = 0;        // amu: Amu::submit -> reply
};

LayerProbes run_layer_probes();

}  // namespace perfbench
