#include "spans.hh"

#include <cstdio>
#include <cstdlib>

namespace simbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Workload: return "workload";
      case Layer::Cpu: return "cpu";
      case Layer::Llc: return "llc";
      case Layer::Dram: return "dram";
      case Layer::Common: return "common";
    }
    return "unknown";
}

void
Tracer::overflow()
{
    std::fprintf(stderr, "simbench: more than %u spans in one traced run\n",
                 Span::kNoParent);
    std::abort();
}

} // namespace simbench
