(* CPU time and peak resident memory of a process, from /proc. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Kernel clock ticks per second for /proc/<pid>/stat times; 100 on
   every Linux configuration this benchmark targets. *)
let clock_ticks = 100.0

(* User + system CPU seconds of [pid] (all its threads). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name, which may contain
     spaces: state is field 3, utime 14, stime 15. *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks

(* This process's CPU seconds, at microsecond resolution. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM (peak resident set) of [pid] in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
