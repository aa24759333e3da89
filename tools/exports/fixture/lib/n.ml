let hidden_by_namesake x = x * 2
