SELECT 1 AS one INTO r;
MONTECARLO FROM users(3e9, 0.8, 5.0, 2.0) AS u JOIN items(1e400) AS i
           ON u.user_id = i.item_id;
