// Command-line entry point of the serving front: the session broker
// (evloop/ev_broker.hpp) behind both maxel_server and `maxelctl serve`.
// argv excludes the program/subcommand name.
#pragma once

namespace maxel::evloop {

// maxel_server | maxelctl serve [--spool DIR] [--shards N] [--backlog B]
//   [--low L] [--high H] [--cache C] [--port P] [--bind A] [--bits N]
//   [--rounds M] [--scheme halfgates|grr3|classic4] [--cores K]
//   [--seed S] [--sessions K] [--mode precomputed|stream|v3|reusable]
//   [--chunk-rounds R] [--idle-timeout MS] [--metrics FILE] [--json FILE]
//   [--quiet]
// Runs the sharded EvBroker off the disk spool in DIR; without --spool,
// off a private temporary spool (mode 0700) that is removed on exit.
// --mode restricts the server to one optional session family
// (precomputed is always served); per-session log lines go to stderr
// unless --quiet. Numeric flags take decimal integers only; any bad
// flag exits 2.
int broker_command(int argc, char** argv);

}  // namespace maxel::evloop
