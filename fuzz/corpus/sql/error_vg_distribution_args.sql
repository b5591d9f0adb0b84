SELECT 1 AS one INTO r;
MONTECARLO FROM users(8, 0.8, 5.0, 2.0) AS u JOIN items(8, 1e400, -0.5, -3) AS i
           ON u.user_id = i.item_id;
