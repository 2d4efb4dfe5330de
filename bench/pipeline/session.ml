(* Daemon sessions driven from outside the daemon: the daemon runs in a
   re-executed child, and each session is a step-for-step copy of
   [Client.stream_events] with its phases timed. *)

module Branch_stream = Regionsel_engine.Branch_stream
module Event_log = Regionsel_persist.Event_log
module Persist = Regionsel_persist.Persist
module Proto = Regionsel_serve.Proto
module Client = Regionsel_serve.Client
module Server = Regionsel_serve.Server

let vm_hwm_mb status_path =
  In_channel.with_open_text status_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:0.0

module Daemon = struct
  type t = { pid : int; socket_path : string; state_dir : string }

  let serve ~socket_path ~state_dir ~ingest_max =
    let cfg = Server.default_config ~socket_path ~state_dir in
    Server.serve { cfg with Server.ingest_max; n_domains = Some 1 }

  let exited pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

  let kill pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

  let pings socket_path =
    Sys.file_exists socket_path
    && match Client.ctrl ~socket_path "ping" with
       | Ok "pong" -> true
       | _ -> false
       | exception (Unix.Unix_error _ | Proto.Protocol_error _) -> false

  let start ~exe ~socket_path ~state_dir ~ingest_max =
    let pid =
      Unix.create_process exe
        [| exe; "--serve"; socket_path; state_dir; string_of_int ingest_max |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec wait () =
      if pings socket_path then ()
      else if exited pid then failwith "daemon exited before its socket came up"
      else if Unix.gettimeofday () > deadline then begin
        kill pid;
        failwith "daemon socket never came up"
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    wait ();
    { pid; socket_path; state_dir }

  let socket_path t = t.socket_path
  let state_dir t = t.state_dir

  let peak_rss_mb t = vm_hwm_mb (Printf.sprintf "/proc/%d/status" t.pid)

  let stop t =
    (try ignore (Client.ctrl ~socket_path:t.socket_path "shutdown")
     with Unix.Unix_error _ | Proto.Protocol_error _ -> ());
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec wait () =
      if exited t.pid then ()
      else if Unix.gettimeofday () > deadline then kill t.pid
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    in
    wait ()
end

type timing = {
  mutable welcome_ns : int list;
  mutable result_ns : int;
  mutable encode_ns : int;
  mutable write_ns : int;
  mutable frames : int;
  mutable bytes : int;
  mutable resumes : int;
}

let timing () =
  { welcome_ns = []; result_ns = 0; encode_ns = 0; write_ns = 0; frames = 0; bytes = 0;
    resumes = 0 }

type outcome = Finished of string | Truncated of int

let expect_frame fd =
  match Proto.read_msg fd with
  | Some msg -> msg
  | None -> raise (Proto.Protocol_error "server closed the connection mid-session")

let stream ?truncate_at ~tracer ~parent ~timing ~socket_path ~tenant ~bench
    ~policy ~seed ~max_steps ~program events =
  let now = Trace.now_ns in
  Trace.span tracer ~parent "client.with_connection" @@ fun conn ->
  Client.with_connection ~socket_path @@ fun fd ->
  let t_hello = now () in
  let reply =
    Trace.span tracer ~parent:conn "proto.hello" (fun _ ->
        Proto.write_msg fd
          (Proto.Hello
             { h_tenant = tenant; h_bench = bench; h_policy = policy; h_seed = seed;
               h_max_steps = max_steps });
        expect_frame fd)
  in
  timing.welcome_ns <- (now () - t_hello) :: timing.welcome_ns;
  timing.frames <- timing.frames + 2;
  match reply with
  | Proto.Reject { code; detail } -> raise (Client.Rejected { code; detail })
  | Proto.Welcome { resume_step; session = _ } ->
    if resume_step > 0 then timing.resumes <- timing.resumes + 1;
    let total = Branch_stream.length events in
    let pos = ref (min resume_step total) in
    let stop = match truncate_at with Some n -> min n total | None -> total in
    let sent = ref 0 in
    while !pos < stop do
      let len = min 4096 (stop - !pos) in
      let t0 = now () in
      let body =
        Trace.span tracer ~parent:conn "event_log.encode_batch" (fun _ ->
            Event_log.encode_batch ~program events ~pos:!pos ~len)
      in
      let t1 = now () in
      Trace.span tracer ~parent:conn "proto.write_msg" (fun _ ->
          Proto.write_msg fd (Proto.Events body));
      timing.encode_ns <- timing.encode_ns + (t1 - t0);
      timing.write_ns <- timing.write_ns + (now () - t1);
      timing.frames <- timing.frames + 1;
      timing.bytes <- timing.bytes + Bytes.length body;
      pos := !pos + len;
      sent := !sent + len
    done;
    if truncate_at <> None then Truncated !sent
    else begin
      let t_fin = now () in
      let reply =
        Trace.span tracer ~parent:conn "proto.fin" (fun _ ->
            Proto.write_msg fd Proto.Fin;
            expect_frame fd)
      in
      timing.result_ns <- now () - t_fin;
      timing.frames <- timing.frames + 2;
      match reply with
      | Proto.Result json -> Finished json
      | Proto.Reject { code; detail } -> raise (Client.Rejected { code; detail })
      | _ -> raise (Proto.Protocol_error "expected a Result frame")
    end
  | _ -> raise (Proto.Protocol_error "expected a Welcome or Reject frame")

let wait_detached ~tracer ~parent ~state_dir ~tenant ~bench ~policy ~seed =
  let path = Persist.session_file ~dir:state_dir ~tenant ~bench ~policy ~seed in
  Trace.span tracer ~parent "server.detach" @@ fun _ ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) do
    if Unix.gettimeofday () > deadline then failwith ("no snapshot for dropped tenant " ^ tenant);
    Unix.sleepf 0.0002
  done
