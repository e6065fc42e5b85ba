// Command-line entry point for the evaluator client, shared between the
// standalone maxel_client binary and the maxelctl `connect` subcommand.
// argv excludes the program/subcommand name. It prints a human summary
// on exit and dumps the session stats as JSON (stdout line
// `STATS {...}`, plus --json FILE). The serving side is
// evloop::broker_command (evloop/ev_service.hpp).
#pragma once

namespace maxel::net {

// maxel_client [--host H] [--port P] [--bits N] [--rounds M]
//              [--scheme ...] [--ot base|iknp] [--seed S] [--no-check]
//              [--json FILE] [--quiet] [--retries N] [--retry-backoff MS]
//              [--retry-backoff-max MS] [--retry-seed S]
//              [--net-timeout MS] [--fault-plan SPEC]
//
// Also honors MAXEL_FAULT_PLAN (env) as the default --fault-plan, so
// the stock binary can be chaos-tested without flag changes; see
// net/fault.hpp for the plan grammar and docs/TESTING.md for usage.
int connect_command(int argc, char** argv);

}  // namespace maxel::net
