// Command-line entry point for the session broker (evloop/ev_broker.hpp),
// wired into maxelctl as `serve --spool`. argv excludes the
// program/subcommand name.
#pragma once

namespace maxel::evloop {

// maxelctl serve --spool DIR [--shards N] [--backlog B] [--low L]
//   [--high H] [--cache C] [--port P] [--bind A] [--bits N] [--rounds M]
//   [--scheme halfgates|grr3|classic4] [--cores K] [--seed S]
//   [--sessions K] [--mode precomputed|stream|v3|reusable]
//   [--chunk-rounds R] [--idle-timeout MS] [--metrics FILE] [--json FILE]
//   [--quiet]
// Runs the sharded EvBroker off the disk spool in DIR. maxelctl routes
// `serve` here whenever --spool is present; otherwise the sequential
// net::serve_command handles it. --mode gates the optional session
// families exactly like the sequential server; per-session log lines go
// to stderr unless --quiet.
int broker_command(int argc, char** argv);

}  // namespace maxel::evloop
