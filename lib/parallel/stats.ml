type t = {
  domains : int;
  tasks_run : int;
  queue_high_water : int;
  busy_s : float array;
}
