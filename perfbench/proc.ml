(* Child processes of the program under test: spawn, reap with the
   child's own peak RSS, and read back what it printed. *)

external wait4 : int -> int * int = "perfbench_wait4"

let now = Unix.gettimeofday

type exit = { code : int; maxrss_kb : int; started : float; wall_s : float }

(* The inherited environment with the pool width pinned. *)
let environment ~jobs =
  Array.append
    [| Printf.sprintf "BUDGETBUF_JOBS=%d" jobs |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"BUDGETBUF_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Starts [exe args] with stdout in [out] and stderr in [out].err. *)
let spawn ~exe ~env ~out args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let o = open_out_fd out and e = open_out_fd (out ^ ".err") in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ null; o; e ])
    (fun () -> Unix.create_process_env exe (Array.of_list (exe :: args)) env null o e)

(* Runs to completion; [wall_s] spans spawn to reap. *)
let run ~exe ~env ~out args =
  let started = now () in
  let pid = spawn ~exe ~env ~out args in
  let code, maxrss_kb = wait4 pid in
  { code; maxrss_kb; started; wall_s = now () -. started }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Peak RSS of a live process and its direct children, from /proc. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> kb
        | exception _ -> acc)
      0 (String.split_on_char '\n' s)

let children pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tasks ->
    List.concat_map
      (fun t ->
        match read_file (Printf.sprintf "%s/%s/children" dir t) with
        | exception Sys_error _ -> []
        | s ->
          List.filter_map int_of_string_opt
            (String.split_on_char ' ' (String.trim s)))
      (Array.to_list tasks)

let tree_hwm_kb pid =
  List.fold_left (fun acc c -> acc + vm_hwm_kb c) (vm_hwm_kb pid) (children pid)
