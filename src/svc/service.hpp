// Command-line entry points for the spool and metrics tools, wired into
// maxelctl next to the serve command (evloop/ev_service.hpp). argv
// excludes the program/subcommand name.
#pragma once

namespace maxel::svc {

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
