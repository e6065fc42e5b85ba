// maxel_server — garbler-side network daemon: serves pre-garbled MAC
// sessions (every session mode) to remote maxel_client evaluators over
// TCP through the session broker. See src/evloop/ev_service.hpp for the
// flags and docs/PROTOCOL.md for the wire format.
#include "evloop/ev_service.hpp"

int main(int argc, char** argv) {
  return maxel::evloop::broker_command(argc - 1, argv + 1);
}
