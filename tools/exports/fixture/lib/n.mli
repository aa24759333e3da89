val hidden_by_namesake : int -> int
