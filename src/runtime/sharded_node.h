// The sharded shape is RuntimeServer with config.num_shards > 1; this header
// stays only for loopbench, whose sources include it (see node.h).
#ifndef SRC_RUNTIME_SHARDED_NODE_H_
#define SRC_RUNTIME_SHARDED_NODE_H_

#include "src/runtime/node.h"

#endif  // SRC_RUNTIME_SHARDED_NODE_H_
