// Command-line entry points for the service tier (broker + spool +
// metrics), wired into maxelctl next to the sequential net commands.
// argv excludes the program/subcommand name.
#pragma once

namespace maxel::svc {

// maxelctl serve --spool DIR [--workers N] [--queue Q] [--low L]
//   [--high H] [--cache C] [--port P] [--bind A] [--bits N] [--rounds M]
//   [--scheme halfgates|grr3|classic4] [--cores K] [--seed S]
//   [--sessions K] [--mode precomputed|stream|v3|reusable]
//   [--metrics FILE] [--json FILE] [--quiet]
// Runs the concurrent Broker. maxelctl routes `serve` here whenever
// --spool or --workers is present; otherwise the sequential
// net::serve_command handles it. --mode gates the optional session
// families exactly like the sequential server.
int broker_command(int argc, char** argv);

// maxelctl spool --dir DIR [--fill K --bits N --rounds M [--scheme S]]
// Opens (reconciling claimed/ leftovers), optionally garbles K sessions
// into the spool, then prints its stats — including one line per
// resident reusable artifact (key, size, evaluations served, checksum
// lineage) — as JSON.
//
// maxelctl spool purge --lane reusable --dir DIR
// Destroys the resident reusable artifacts, forcing the next broker on
// this spool to garble fresh flips.
int spool_command(int argc, char** argv);

// maxelctl stats --metrics FILE
// Pretty-prints a metrics JSON dump written by `serve --metrics`.
int stats_command(int argc, char** argv);

}  // namespace maxel::svc
