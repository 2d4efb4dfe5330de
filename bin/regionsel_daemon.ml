(* The streaming region-selection daemon binary: a thin cmdliner shell
   around [Regionsel_serve.Server].

   Exit codes follow the repo-wide discipline (documented in DESIGN.md):
   0 = clean shutdown (signal or ctrl shutdown), 2 = CLI error, 3 =
   sanitizer violation (flight recorder already dumped), 4 = I/O error,
   5 = snapshot hard corruption. *)

open Cmdliner
module Server = Regionsel_serve.Server
module Check = Regionsel_check.Check
module Persist = Regionsel_persist.Persist

let with_error_reporting f =
  try f () with
  | Check.Check_violation v ->
    Printf.eprintf "%s\n%!" (Check.violation_to_string v);
    exit 3
  | Sys_error msg ->
    Printf.eprintf "i/o error: %s\n%!" msg;
    exit 4
  | Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "i/o error: %s: %s%s\n%!" fn (Unix.error_message err)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit 4
  | Persist.Hard_corruption msg ->
    Printf.eprintf "snapshot hard corruption: %s\n%!" msg;
    exit 5
  | Invalid_argument msg ->
    Printf.eprintf "error: %s\n%!" msg;
    exit 2

let socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let state_dir_arg =
  let doc = "Directory for session snapshots and flight dumps (created if missing)." in
  Arg.(required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let budget_arg =
  let doc = "Shared code-cache budget in bytes across all tenants (default unlimited)." in
  Arg.(value & opt (some int) None & info [ "budget-bytes" ] ~docv:"N" ~doc)

let quota_floor_arg =
  let doc =
    "Admission floor: reject a new tenant if per-tenant fair shares of the budget would \
     drop below $(docv) bytes."
  in
  Arg.(value & opt int 4096 & info [ "quota-floor" ] ~docv:"N" ~doc)

let max_tenants_arg =
  let doc =
    "Admission limit on concurrently attached tenants; also the most spare ingest buffers \
     the daemon keeps for reuse."
  in
  Arg.(value & opt int 64 & info [ "max-tenants" ] ~docv:"N" ~doc)

let batch_steps_arg =
  let doc = "Steps per tenant per engine round." in
  Arg.(value & opt int 4096 & info [ "batch-steps" ] ~docv:"N" ~doc)

let ingest_max_arg =
  let doc =
    "Backpressure bound: stop reading a connection whose tenant has $(docv) ingested \
     but unconsumed events; resume below half that."
  in
  Arg.(value & opt int 65536 & info [ "ingest-max" ] ~docv:"N" ~doc)

let domains_arg =
  let doc = "Worker domains for engine rounds (default: automatic)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let metrics_keep_arg =
  let doc =
    "Metrics windows retained per live tenant recorder, and in total by the ring that \
     keeps finished tenants' windows (oldest evicted first)."
  in
  Arg.(value & opt int 256 & info [ "metrics-keep" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Log session lifecycle events to stderr." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let main =
  let run socket_path state_dir budget_bytes quota_floor max_tenants batch_steps ingest_max
      n_domains metrics_keep verbose =
    with_error_reporting @@ fun () ->
    Server.serve
      {
        Server.socket_path;
        state_dir;
        budget_bytes;
        quota_floor;
        max_tenants;
        batch_steps;
        ingest_max;
        n_domains;
        metrics_keep;
        verbose;
      }
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Long-running socket front end for the region-selection simulator: clients \
         stream recorded branch events into tenant sessions multiplexed over the \
         multi-stream engine; control connections scrape live Prometheus/JSONL \
         metrics.  Sessions are snapshotted on disconnect and on SIGTERM, and resume \
         bit-identically on reconnect.";
    ]
  in
  Cmd.v
    (Cmd.info "regionsel_daemon" ~version:"1.0.0" ~man
       ~doc:"Streaming region-selection daemon over a Unix-domain socket")
    Term.(
      const run $ socket_arg $ state_dir_arg $ budget_arg $ quota_floor_arg
      $ max_tenants_arg $ batch_steps_arg $ ingest_max_arg $ domains_arg
      $ metrics_keep_arg $ verbose_arg)

let () = exit (Cmd.eval main)
